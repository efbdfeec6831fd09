"""``scripts/check_links.py``: the root ``ISSUE.md`` is not scanned."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_links.py"


@pytest.fixture(scope="module")
def check_links():
    spec = importlib.util.spec_from_file_location("check_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, issue_text: str) -> None:
    (root / "docs").mkdir()
    (root / "docs" / "INDEX.md").write_text("# Index\n")
    (root / "README.md").write_text("[docs](docs/INDEX.md)\n")
    (root / "ISSUE.md").write_text(issue_text)


def test_root_issue_is_skipped(check_links, tmp_path, capsys):
    write_tree(tmp_path, "Deletes `src/repro/gone.py`.\n")
    assert check_links.main([str(tmp_path)]) == 0
    assert "checked 2 markdown files: OK" in capsys.readouterr().out


def test_other_markdown_is_still_checked(check_links, tmp_path, capsys):
    write_tree(tmp_path, "\n")
    (tmp_path / "docs" / "ISSUE.md").write_text("See `src/repro/gone.py`.\n")
    (tmp_path / "docs" / "INDEX.md").write_text("[issue](ISSUE.md)\n")
    assert check_links.main([str(tmp_path)]) == 1
    assert "docs/ISSUE.md: broken source path" in capsys.readouterr().err
