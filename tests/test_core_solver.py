import tracemalloc

import numpy as np
import pytest

from pmivec.core_solver import (
    CoreSolveConfig,
    _ritz_psd_factor,
    em_factorize,
    psd_truncate,
    weighted_frobenius,
)


def projected_gradient_oracle(target, weights, dim, steps=500):
    """Independent minimizer of the same objective: gradient steps on the
    full matrix with its own eigenvalue projection onto rank-d PSD."""
    step = 1.0 / (2.0 * max(weights.max(), 1e-12))
    x = np.zeros_like(target)
    for _ in range(steps):
        grad = -2.0 * weights * (target - x)
        evals, evecs = np.linalg.eigh((x - step * grad + (x - step * grad).T) / 2.0)
        keep = np.argsort(evals)[::-1][:dim]
        lam = np.clip(evals[keep], 0.0, None)
        x = (evecs[:, keep] * lam) @ evecs[:, keep].T
    return x


def exact_em_oracle(target, weights, dim, sweeps):
    """The EM loop with a full eigendecomposition in every sweep."""
    target = (target + target.T) / 2.0
    approx = np.zeros_like(target)
    residuals = [weighted_frobenius(target, approx, weights)]
    for _ in range(sweeps):
        factor, approx = psd_truncate(weights * target + (1.0 - weights) * approx, dim)
        residuals.append(weighted_frobenius(target, approx, weights))
    return factor, residuals


def random_instance(rng, n, d, noise=0.3):
    """Rank-d PSD block plus symmetric noise, with symmetric weights in [0, 1]."""
    v = rng.normal(size=(n, d))
    g = v @ v.T + noise * rng.normal(size=(n, n))
    g = (g + g.T) / 2.0
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    return g, w


class TestWeightedFrobenius:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 4))
        assert weighted_frobenius(g, x, np.zeros((4, 4))) == 0.0

    def test_equal_matrices_give_zero(self):
        g = np.arange(9.0).reshape(3, 3)
        assert weighted_frobenius(g, g, np.ones((3, 3))) == 0.0

    def test_hand_sum(self):
        g = np.eye(2)
        w = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert weighted_frobenius(g, np.zeros((2, 2)), w) == 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_frobenius(np.eye(2), np.eye(3), np.eye(2))


class TestPsdTruncate:
    def test_exact_on_rank_d_psd_input(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(3, 10))
        s = v.T @ v
        factor, approx = psd_truncate(s, 3)
        assert np.max(np.abs(approx - s)) < 1e-8
        np.testing.assert_allclose(factor @ factor.T, approx, atol=1e-8)

    def test_negative_eigenvalue_clamped(self):
        factor, approx = psd_truncate(np.array([[-3.0]]), 1)
        assert approx == pytest.approx(np.zeros((1, 1)))
        assert factor == pytest.approx(np.zeros((1, 1)))

    def test_two_by_two_by_hand(self):
        factor, approx = psd_truncate(np.diag([4.0, 1.0]), 1)
        np.testing.assert_allclose(approx, np.diag([4.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(factor.ravel(), [2.0, 0.0], atol=1e-12)

    def test_output_is_psd_with_bounded_rank(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(12, 12))
        factor, approx = psd_truncate(s, 4)
        evals = np.linalg.eigvalsh(approx)
        assert evals.min() >= -1e-9
        assert np.sum(evals > 1e-8 * max(evals.max(), 1.0)) <= 4

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(8, 8))
        f1, x1 = psd_truncate(s, 3)
        f2, x2 = psd_truncate(s, 3)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(x1, x2)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            psd_truncate(np.eye(3), 0)
        with pytest.raises(ValueError):
            psd_truncate(np.eye(3), 4)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            psd_truncate(np.ones((2, 3)), 1)


class TestEmFactorize:
    def test_uniform_weights_recover_exact_low_rank(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(12, 3))
        g = v @ v.T
        factor, diag = em_factorize(g, np.ones_like(g), CoreSolveConfig(3))
        assert diag.residuals[-1] < 1e-8
        assert diag.iterations <= 2

    def test_full_rank_psd_recovered_exactly(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(6, 6))
        g = v @ v.T
        factor, diag = em_factorize(g, np.ones_like(g), CoreSolveConfig(6))
        assert diag.residuals[-1] < 1e-10

    def test_uniform_weights_equal_single_truncation(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(9, 9))
        g = (g + g.T) / 2.0
        factor, diag = em_factorize(g, np.ones_like(g), CoreSolveConfig(3))
        expected, _ = psd_truncate(g, 3)
        np.testing.assert_array_equal(factor, expected)

    def test_weights_outside_unit_interval_rejected(self):
        g = np.eye(3)
        with pytest.raises(ValueError):
            em_factorize(g, 2.0 * np.ones((3, 3)), CoreSolveConfig(2))
        with pytest.raises(ValueError):
            em_factorize(g, -0.1 * np.ones((3, 3)), CoreSolveConfig(2))

    def test_nan_weight_rejected(self):
        weights = np.ones((3, 3))
        weights[0, 2] = weights[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            em_factorize(np.eye(3), weights, CoreSolveConfig(2))

    def test_monotone_descent_on_random_weighted_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            g, w = random_instance(rng, 20, 4)
            _, diag = em_factorize(g, w, CoreSolveConfig(4, max_iters=30, tol=1e-12))
            r = np.array(diag.residuals)
            assert np.all(np.diff(r) <= 1e-12)

    def test_output_psd_and_rank_bounded(self):
        rng = np.random.default_rng(8)
        g, w = random_instance(rng, 15, 3)
        factor, _ = em_factorize(g, w, CoreSolveConfig(3))
        x = factor @ factor.T
        evals = np.linalg.eigvalsh(x)
        assert evals.min() >= -1e-9
        assert np.sum(evals > 1e-8 * max(evals.max(), 1.0)) <= 3

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        g, w = random_instance(rng, 10, 3)
        perm = rng.permutation(10)
        f1, _ = em_factorize(g, w, CoreSolveConfig(3, max_iters=15, tol=1e-12))
        f2, _ = em_factorize(g[np.ix_(perm, perm)], w[np.ix_(perm, perm)],
                             CoreSolveConfig(3, max_iters=15, tol=1e-12))
        # compare gram matrices: rotation of the embedding space cancels out
        np.testing.assert_allclose((f1 @ f1.T)[np.ix_(perm, perm)], f2 @ f2.T, atol=1e-8)

    def test_beats_projected_gradient_oracle(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=(30, 5))
        g = v @ v.T
        noise = rng.normal(size=(30, 30))
        g = g + 0.2 * (noise + noise.T) / 2.0
        w = rng.uniform(0.0, 1.0, size=(30, 30))
        w = (w + w.T) / 2.0
        factor, diag = em_factorize(g, w, CoreSolveConfig(5, max_iters=500, tol=1e-14))
        oracle_x = projected_gradient_oracle(g, w, 5, steps=500)
        oracle_residual = weighted_frobenius(g, oracle_x, w)
        assert diag.residuals[-1] <= oracle_residual + 1e-6

    @pytest.mark.parametrize("n", [100, 300], ids=["eigh", "block-krylov"])
    def test_asymmetric_weights_are_averaged(self, n):
        # the sweep needs symmetric weights; with a symmetric iterate
        # (W + W^T) / 2 describes the same objective as W
        rng = np.random.default_rng(0)
        g = random_instance(rng, n, 10)[0]
        w = rng.uniform(0.0, 1.0, size=(n, n))
        cfg = CoreSolveConfig(10, max_iters=40, tol=1e-14)
        factor, diag = em_factorize(g, w, cfg)
        assert diag.method == ("eigh" if n == 100 else "block-krylov")
        assert all(b <= a for a, b in zip(diag.residuals, diag.residuals[1:]))
        assert factor.tobytes() == em_factorize(g, (w + w.T) / 2.0, cfg)[0].tobytes()

    @pytest.mark.parametrize("n", [30, 70], ids=["eigh", "block-krylov"])
    def test_non_finite_target_rejected(self, n):
        for bad in (np.nan, np.inf):
            target = np.eye(n)
            target[0, 2] = target[2, 0] = bad
            with pytest.raises(ValueError, match="target must be finite"):
                em_factorize(target, np.ones((n, n)), CoreSolveConfig(1))

    def test_dim_larger_than_block_rejected(self):
        with pytest.raises(ValueError):
            em_factorize(np.eye(2), np.ones((2, 2)), CoreSolveConfig(3))


class TestBlockKrylov:
    """Blocks above 4(d + 16) words are truncated by Rayleigh-Ritz on a block-Krylov space."""

    def test_monotone_trace(self):
        rng = np.random.default_rng(11)
        for n, d in ((400, 20), (450, 40)):
            g, w = random_instance(rng, n, d)
            _, diag = em_factorize(g, w, CoreSolveConfig(d, max_iters=60, tol=1e-14))
            assert diag.method == "block-krylov"
            assert all(b <= a for a, b in zip(diag.residuals, diag.residuals[1:]))

    def test_psd_and_rank_bounded(self):
        rng = np.random.default_rng(12)
        g, w = random_instance(rng, 400, 30)
        factor, diag = em_factorize(g, w, CoreSolveConfig(30, max_iters=10))
        assert factor.shape == (400, 30)
        x = factor @ factor.T
        evals = np.linalg.eigvalsh(x)
        assert evals.min() >= -1e-9 * evals.max()
        assert np.sum(evals > 1e-8 * evals.max()) <= 30
        assert weighted_frobenius((g + g.T) / 2.0, x, w) == pytest.approx(diag.residuals[-1])

    @pytest.mark.parametrize("n,d", [(400, 20), (500, 50)])
    def test_residual_close_to_exact_eigh(self, n, d):
        rng = np.random.default_rng(n + d)
        g, w = random_instance(rng, n, d, noise=4.0)
        _, diag = em_factorize(g, w, CoreSolveConfig(d, max_iters=15, tol=1e-14))
        _, exact = exact_em_oracle(g, w, d, diag.iterations)
        assert diag.residuals[-1] <= exact[-1] * 1.001

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(13)
        g, w = random_instance(rng, 400, 25)
        f1, d1 = em_factorize(g, w, CoreSolveConfig(25, max_iters=8))
        f2, d2 = em_factorize(g, w, CoreSolveConfig(25, max_iters=8))
        np.testing.assert_array_equal(f1, f2)
        assert d1.residuals == d2.residuals

    @pytest.mark.parametrize("dim", [1, 4])
    def test_path_boundary(self, dim):
        rng = np.random.default_rng(14)
        edge = 4 * (dim + 16)
        g, w = random_instance(rng, edge + 1, dim)
        cfg = CoreSolveConfig(dim, max_iters=6, tol=1e-14)
        factor, diag = em_factorize(g[:edge, :edge], w[:edge, :edge], cfg)
        assert diag.method == "eigh"
        expected, residuals = exact_em_oracle(g[:edge, :edge], w[:edge, :edge], dim, diag.iterations)
        np.testing.assert_array_equal(factor, expected)
        assert diag.residuals == residuals
        assert em_factorize(g, w, cfg)[1].method == "block-krylov"
        # one word past the edge, b(steps + 1) > n: the space fills all n
        # columns, so with W = 1 one sweep is the exact truncation
        factor, _ = em_factorize(g, np.ones_like(g), CoreSolveConfig(dim, max_iters=1))
        np.testing.assert_allclose(factor @ factor.T, psd_truncate(g, dim)[1], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["rank-3", "diagonal", "two-components"])
    def test_invariant_start_block(self, kind):
        # the first d + 16 columns span a subspace the target maps into itself,
        # so the next Krylov block projects to rounding level or to exact zeros
        n, dim = 300, 50
        rng = np.random.default_rng(15)
        if kind == "rank-3":
            v = rng.normal(size=(n, 3))
            g = v @ v.T
        elif kind == "diagonal":  # the first columns hold the smallest entries
            g = np.diag(np.arange(1.0, n + 1.0))
        else:  # the larger component shares no entry with the first columns
            a, v = rng.normal(size=(dim + 16, 3)), 3.0 * rng.normal(size=(n - dim - 16, 12))
            g = np.zeros((n, n))
            g[:dim + 16, :dim + 16], g[dim + 16:, dim + 16:] = a @ a.T, v @ v.T
        factor, diag = em_factorize(g, np.ones_like(g), CoreSolveConfig(dim, max_iters=1))
        assert diag.method == "block-krylov"
        np.testing.assert_allclose(factor @ factor.T, psd_truncate(g, dim)[1], rtol=0, atol=1e-10)
        _, ritz = _ritz_psd_factor(g, g[:, :dim + 16], 8, dim, np.empty((n, n)))
        np.testing.assert_allclose(ritz.T @ ritz, np.eye(dim), rtol=0, atol=1e-12)

    def test_memory_budget(self):
        # beyond its inputs the solve holds the iterate and the work block,
        # whose Krylov basis and Ritz matrix add well under one n x n array
        n, d = 600, 20
        g, w = random_instance(np.random.default_rng(16), n, d)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, diag = em_factorize(g, w, CoreSolveConfig(d, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert diag.method == "block-krylov"
        assert peak / (8 * n * n) <= 3.25


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            CoreSolveConfig(0)
        with pytest.raises(ValueError):
            CoreSolveConfig(2, max_iters=0)
        with pytest.raises(ValueError):
            CoreSolveConfig(2, tol=0.0)
