#!/usr/bin/env python
"""Check that the repo's markdown cross-references resolve, both ways.

Three checks over every tracked ``*.md`` file except the root
``ISSUE.md``, no dependencies beyond the standard library:

1. **Relative links** — inline links and images (``[text](target)``)
   must point at existing files.  External schemes (http/https/mailto)
   and pure in-page anchors are skipped; ``#fragment`` suffixes are
   stripped; in-page fragments of *local* markdown targets are checked
   against the target's headings.
2. **Backticked source paths** — prose references like
   ``` `src/repro/store/key.py` ``` must name real paths, so docs
   cannot silently drift from a refactored tree (the docs→source
   direction).
3. **Docs-index completeness** — every ``docs/*.md`` page must be
   linked from ``docs/INDEX.md``, and the README must link the index,
   so no guide is orphaned (the README→docs direction).

Run from anywhere inside the repo::

    python scripts/check_links.py [root]

The root ``ISSUE.md`` is skipped: it describes the tree a change starts
from, so it may name paths the change deletes.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown link or image: [text](target) / ![alt](target).
#: Targets containing spaces or parentheses are not used in this repo.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked repo path: `src/...`, `docs/...`, `tests/...`, etc.
#: Requires at least one slash and a file extension, so flag spellings
#: (`--store DIR`) and dotted module names are not mistaken for paths.
_SOURCE_PATH = re.compile(
    r"`((?:src|docs|scripts|examples|tests|benchmarks)"
    r"/[A-Za-z0-9_.\-/]*\.[A-Za-z0-9_]+/?)`"
)

#: ATX heading, for anchor validation.
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: Directories never scanned (generated or vendored content).
_SKIP_DIRS = {".git", "results", "__pycache__", ".pytest_cache", "node_modules"}

#: Root-relative markdown files never scanned.
_SKIP_FILES = {"ISSUE.md"}


def iter_markdown_files(root: Path):
    """Yield every markdown file under ``root``, skipping junk dirs and
    the root-relative paths in ``_SKIP_FILES``."""
    for path in sorted(root.rglob("*.md")):
        rel = path.relative_to(root)
        if any(part in _SKIP_DIRS for part in rel.parts):
            continue
        if rel.as_posix() in _SKIP_FILES:
            continue
        yield path


def strip_code_blocks(text: str) -> str:
    """Remove fenced code blocks so example links are not checked."""
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def _anchor(heading: str) -> str:
    """GitHub-style anchor slug of one heading text."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(path: Path, cache: dict) -> set[str]:
    """All heading anchors of a markdown file (memoised)."""
    if path not in cache:
        cache[path] = {
            _anchor(m) for m in _HEADING.findall(path.read_text())
        }
    return cache[path]


def check_file(path: Path, root: Path, anchor_cache: "dict | None" = None
               ) -> list[str]:
    """Return one error string per broken reference in ``path``.

    Covers relative link targets, fragments into local markdown files,
    and backticked source paths.
    """
    anchor_cache = {} if anchor_cache is None else anchor_cache
    errors = []
    text = strip_code_blocks(path.read_text())
    rel = path.relative_to(root)
    for target in _LINK.findall(text):
        if target.startswith(_SKIP_PREFIXES):
            continue
        base, _, fragment = target.partition("#")
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            errors.append(f"{rel}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if _anchor(fragment) not in _anchors(resolved, anchor_cache):
                errors.append(f"{rel}: broken anchor -> {target}")
    for source in _SOURCE_PATH.findall(text):
        if not (root / source).exists():
            errors.append(f"{rel}: broken source path -> `{source}`")
    return errors


def check_docs_index(root: Path) -> list[str]:
    """README→docs direction: no orphan guide, index linked from README.

    Every ``docs/*.md`` page must be linked from ``docs/INDEX.md``, and
    ``README.md`` must link the index itself.
    """
    index = root / "docs" / "INDEX.md"
    if not index.exists():
        return ["docs/INDEX.md: missing documentation index"]
    errors = []
    linked = {
        (index.parent / t.split("#", 1)[0]).resolve()
        for t in _LINK.findall(strip_code_blocks(index.read_text()))
        if not t.startswith(_SKIP_PREFIXES)
    }
    for page in sorted((root / "docs").glob("*.md")):
        if page == index:
            continue
        if page.resolve() not in linked:
            errors.append(
                f"docs/INDEX.md: missing entry for {page.relative_to(root)}"
            )
    readme = root / "README.md"
    if readme.exists():
        targets = {
            (readme.parent / t.split("#", 1)[0]).resolve()
            for t in _LINK.findall(strip_code_blocks(readme.read_text()))
            if not t.startswith(_SKIP_PREFIXES)
        }
        if index.resolve() not in targets:
            errors.append("README.md: does not link docs/INDEX.md")
    return errors


def main(argv: list[str]) -> int:
    """Scan the repo (or ``argv[0]``) and report broken references."""
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parents[1]
    errors = []
    anchor_cache: dict = {}
    n_files = 0
    for path in iter_markdown_files(root):
        n_files += 1
        errors.extend(check_file(path, root, anchor_cache))
    errors.extend(check_docs_index(root))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {n_files} markdown files: "
          f"{'OK' if not errors else f'{len(errors)} broken references'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
