"""Tests for the kernel family (eq. 5-6 of the paper)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import _CHUNK_ELEMENTS, Matern, RBF, _chunk_work

points = st.lists(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3),
    min_size=1, max_size=8,
)


class TestScaledDistance:
    def test_zero_at_identical_points(self):
        k = Matern(lengthscales=[1.0, 1.0])
        x = np.array([[0.3, 0.7]])
        assert k.scaled_distance(x, x)[0, 0] == pytest.approx(0.0)

    def test_anisotropy(self):
        """Eq. 5: distances scale per dimension (anisotropic)."""
        k = Matern(lengthscales=[1.0, 10.0])
        a = np.array([[0.0, 0.0]])
        along_first = np.array([[1.0, 0.0]])
        along_second = np.array([[0.0, 1.0]])
        d1 = k.scaled_distance(a, along_first)[0, 0]
        d2 = k.scaled_distance(a, along_second)[0, 0]
        assert d1 == pytest.approx(1.0)
        assert d2 == pytest.approx(0.1)

    def test_matches_direct_formula(self):
        ls = np.array([0.5, 2.0, 1.0])
        k = Matern(lengthscales=ls)
        x = np.array([[0.1, 0.2, 0.3]])
        y = np.array([[0.4, -0.1, 0.9]])
        direct = np.sqrt(np.sum(((x - y) / ls) ** 2))
        assert k.scaled_distance(x, y)[0, 0] == pytest.approx(direct)

    def test_dimension_mismatch(self):
        k = Matern(lengthscales=[1.0, 1.0])
        with pytest.raises(ValueError):
            k.scaled_distance(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            k.scale(np.zeros((1, 3)))

    @pytest.mark.parametrize("kernel", [
        Matern([0.5, 2.0, 1.0], output_scale=1.7, nu=0.5),
        Matern([0.5, 2.0, 1.0], output_scale=1.7, nu=1.5),
        Matern([0.5, 2.0, 1.0], output_scale=1.7, nu=2.5),
        RBF([0.5, 2.0, 1.0], output_scale=1.7),
    ], ids=["matern-0.5", "matern-1.5", "matern-2.5", "rbf"])
    def test_prescaled_points_are_bit_identical(self, kernel):
        """A grid scaled once gives exactly the kernel of the raw grid."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 3))
        y = rng.standard_normal((40, 3))
        scaled = kernel.scale(y)
        np.testing.assert_array_equal(kernel(x, scaled), kernel(x, y))
        np.testing.assert_array_equal(
            kernel(kernel.scale(x), scaled), kernel(x, y)
        )


class TestMatern:
    def test_paper_equation_six(self):
        """k(z,z') = s (1 + sqrt(3) d) exp(-sqrt(3) d) for nu=3/2."""
        k = Matern(lengthscales=[1.0], output_scale=2.0, nu=1.5)
        d = 0.7
        expected = 2.0 * (1 + np.sqrt(3) * d) * np.exp(-np.sqrt(3) * d)
        value = k(np.array([[0.0]]), np.array([[0.7]]))[0, 0]
        assert value == pytest.approx(expected)

    def test_value_at_zero_is_output_scale(self):
        for nu in (0.5, 1.5, 2.5):
            k = Matern(lengthscales=[1.0, 1.0], output_scale=3.0, nu=nu)
            x = np.array([[0.1, 0.2]])
            assert k(x, x)[0, 0] == pytest.approx(3.0)

    def test_decreasing_with_distance(self):
        k = Matern(lengthscales=[1.0], nu=1.5)
        x = np.zeros((1, 1))
        values = [
            k(x, np.array([[d]]))[0, 0] for d in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_smoothness_ordering(self):
        """At moderate distance, higher nu decays differently but all
        agree at 0 and infinity."""
        x, y = np.zeros((1, 1)), np.array([[3.0]])
        values = {
            nu: Matern(lengthscales=[1.0], nu=nu)(x, y)[0, 0]
            for nu in (0.5, 1.5, 2.5)
        }
        assert all(0 < v < 0.2 for v in values.values())

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            Matern(lengthscales=[1.0], nu=2.0)

    def test_invalid_lengthscales(self):
        with pytest.raises(ValueError):
            Matern(lengthscales=[1.0, -1.0])
        with pytest.raises(ValueError):
            Matern(lengthscales=[])

    def test_diag(self):
        k = Matern(lengthscales=[1.0, 1.0], output_scale=4.0)
        np.testing.assert_allclose(k.diag(np.zeros((3, 2))), [4.0, 4.0, 4.0])

    @given(points)
    @settings(max_examples=40, deadline=None)
    def test_property_psd(self, pts):
        """Gram matrices are positive semi-definite."""
        x = np.array(pts)
        k = Matern(lengthscales=[0.7, 1.3, 0.9], nu=1.5)
        gram = k(x, x)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-8

    @given(points)
    @settings(max_examples=30, deadline=None)
    def test_property_symmetric(self, pts):
        x = np.array(pts)
        k = Matern(lengthscales=[1.0, 1.0, 1.0])
        gram = k(x, x)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)


class TestRBF:
    def test_gaussian_shape(self):
        k = RBF(lengthscales=[1.0])
        value = k(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
        assert value == pytest.approx(np.exp(-0.5))

    def test_smoother_than_matern(self):
        """RBF decays slower near zero (infinitely smooth)."""
        rbf = RBF(lengthscales=[1.0])
        matern = Matern(lengthscales=[1.0], nu=1.5)
        x, y = np.zeros((1, 1)), np.array([[0.2]])
        assert rbf(x, y)[0, 0] > matern(x, y)[0, 0]


class TestLogParams:
    def test_roundtrip(self):
        k = Matern(lengthscales=[0.5, 2.0], output_scale=3.0, nu=2.5)
        k2 = k.with_log_params(k.get_log_params())
        np.testing.assert_allclose(k2.lengthscales, k.lengthscales)
        assert k2.output_scale == pytest.approx(k.output_scale)
        assert k2.nu == k.nu

    def test_wrong_size(self):
        k = Matern(lengthscales=[1.0, 1.0])
        with pytest.raises(ValueError):
            k.with_log_params(np.zeros(5))


def frozen_covariance(kernel, x, y):
    """The covariance formula as one array expression per step.

    A frozen copy of how ``Kernel.__call__`` computed the kernel before
    it went through the in-place :meth:`Kernel.fill`; the in-place path
    must reproduce it bit for bit.
    """
    xs, x_sq = kernel._scaled(x)
    ys, y_sq = kernel._scaled(y)
    sq = x_sq[:, None] + y_sq[None, :] - 2.0 * (xs @ ys.T)
    d = np.sqrt(np.maximum(sq, 0.0))
    if isinstance(kernel, RBF):
        corr = np.exp(-0.5 * d**2)
    elif kernel.nu == 0.5:
        corr = np.exp(-d)
    elif kernel.nu == 1.5:
        scaled = np.sqrt(3.0) * d
        corr = (1.0 + scaled) * np.exp(-scaled)
    else:
        scaled = np.sqrt(5.0) * d
        corr = (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)
    return kernel.output_scale * corr


FAMILIES = [
    Matern([0.5, 2.0, 1.0], output_scale=1.7, nu=0.5),
    Matern([0.5, 2.0, 1.0], output_scale=1.7, nu=1.5),
    Matern([0.5, 2.0, 1.0], output_scale=1.7, nu=2.5),
    RBF([0.5, 2.0, 1.0], output_scale=1.7),
]
FAMILY_IDS = ["matern-0.5", "matern-1.5", "matern-2.5", "rbf"]
#: Grid width at which a fill chunk is 16 rows.
CHUNK_COLS = _CHUNK_ELEMENTS // 16


class TestInPlaceFill:
    """``fill`` and ``__call__`` reproduce the frozen formula bit for bit."""

    @pytest.mark.parametrize("kernel", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n_rows", [1, 5, 40],
                             ids=["1-row", "rows", "crossing-chunks"])
    @pytest.mark.parametrize("prescaled", [False, True],
                             ids=["raw", "scaled"])
    def test_byte_equal_to_frozen_formula(self, kernel, n_rows, prescaled):
        rng = np.random.default_rng(n_rows)
        x = rng.standard_normal((n_rows, 3))
        y = rng.standard_normal((CHUNK_COLS, 3))
        # 16-row chunks: 40 rows span three of them.
        assert _chunk_work((n_rows, CHUNK_COLS)).shape[1] == min(n_rows, 16)
        want = frozen_covariance(kernel, x, y)
        xs, ys = (kernel.scale(x), kernel.scale(y)) if prescaled else (x, y)
        out = np.empty_like(want)
        kernel.fill(xs, ys, [out], [kernel.output_scale])
        assert out.tobytes() == want.tobytes()
        assert kernel(xs, ys).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", FAMILIES, ids=FAMILY_IDS)
    def test_one_block_serves_every_output_scale(self, kernel):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 3))
        y = kernel.scale(rng.standard_normal((CHUNK_COLS, 3)))
        twin = kernel.with_log_params(
            np.append(np.log(kernel.lengthscales), np.log(0.02))
        )
        assert twin.correlation_key() == kernel.correlation_key()
        outs = [np.empty((40, CHUNK_COLS)) for _ in range(2)]
        kernel.fill(x, y, outs, [kernel.output_scale, twin.output_scale])
        assert outs[0].tobytes() == kernel(x, y).tobytes()
        assert outs[1].tobytes() == twin(x, y).tobytes()

    def test_correlation_key(self):
        base = Matern([0.5, 2.0], output_scale=1.0, nu=1.5)
        assert Matern([0.5, 2.0], output_scale=9.0).correlation_key() \
            == base.correlation_key()
        for other in (Matern([0.5, 2.1]), Matern([0.5, 2.0], nu=2.5),
                      RBF([0.5, 2.0])):
            assert other.correlation_key() != base.correlation_key()
