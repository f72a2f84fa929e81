import math
import tracemalloc

import numpy as np
import pytest

from pmivec.core_solver import (
    _DEFLATE,
    CoreSolveConfig,
    _append_block,
    _ritz_psd_factor,
    em_factorize,
    weighted_frobenius,
)
from pmivec.statistics import PmiConfig, pmi_block
from test_statistics import zipf_table


def exact_projection(sym, dim):
    """The best rank-``dim`` PSD approximation of ``(sym + sym.T) / 2``, by a full ``eigh``."""
    evals, evecs = np.linalg.eigh((sym + sym.T) / 2.0)
    keep = np.argsort(evals)[::-1][:dim]
    return (evecs[:, keep] * np.clip(evals[keep], 0.0, None)) @ evecs[:, keep].T


def projected_gradient_oracle(target, weights, dim, steps=500):
    """Independent minimizer of the same objective: gradient steps on the
    full matrix, each projected onto rank-d PSD."""
    step = 1.0 / (2.0 * max(weights.max(), 1e-12))
    x = np.zeros_like(target)
    for _ in range(steps):
        grad = -2.0 * weights * (target - x)
        x = exact_projection(x - step * grad, dim)
    return x


def exact_em_oracle(target, weights, dim, sweeps, tol=1e-14, growth=1.5):
    """The over-relaxed EM loop with a full eigendecomposition in every sweep.

    From the third sweep the imputation step is ``omega`` times the plain one;
    ``omega`` grows by ``growth`` after every accepted sweep, up to 64, and
    falls back to 1 when a relaxed sweep does not lower the residual by more
    than ``tol`` of it, which keeps the previous iterate.  ``growth=1`` is
    plain EM.  The default ``tol`` is that of the callers' configs.  Returns
    the residual trace.
    """
    target = (target + target.T) / 2.0
    approx = np.zeros_like(target)
    residuals = [weighted_frobenius(target, approx, weights)]
    omega = 1.0
    for sweep in range(1, sweeps + 1):
        imputed = (1.0 - omega * weights) * approx + (weights * target) * omega
        trial = exact_projection(imputed, dim)
        current = weighted_frobenius(target, trial, weights)
        if omega > 1.0 and not current < residuals[-1] - tol * residuals[-1]:
            residuals.append(residuals[-1])
            omega = 1.0
            continue
        approx = trial
        residuals.append(current)
        if sweep >= 2:
            omega = min(growth * omega, 64.0)
    return residuals


class CountingSym:
    """A matrix that counts the columns it multiplies."""

    def __init__(self, a):
        self.a, self.columns = a, 0

    def __matmul__(self, x):
        self.columns += x.shape[1]
        return self.a @ x


def random_instance(rng, n, d, noise=0.3):
    """Rank-d PSD block plus symmetric noise, with symmetric weights in [0, 1]."""
    v = rng.normal(size=(n, d))
    g = v @ v.T + noise * rng.normal(size=(n, n))
    g = (g + g.T) / 2.0
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    return g, w


def pmi_like_instance(rng, n, d):
    """``random_instance``'s target with weights ``sqrt(p_i p_j)``, ``p_k = 1/k``:
    a few large weights and many small ones, as a PMI block's, where plain EM
    steps are far too short."""
    g = random_instance(rng, n, d)[0]
    p = 1.0 / np.arange(1.0, n + 1.0)
    w = np.sqrt(np.outer(p, p))
    return g, w / w.max()


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
        np.testing.assert_allclose(factor @ factor.T, exact_projection(g, 3), rtol=0, atol=1e-10)

    def test_negative_eigenvalue_clamped(self):
        factor, _ = em_factorize(np.array([[-3.0]]), np.ones((1, 1)), CoreSolveConfig(1))
        assert factor == pytest.approx(np.zeros((1, 1)))

    @pytest.mark.parametrize("target,expected", [([[4.0, 0.0], [0.0, 1.0]], [2.0, 0.0]),
                                                 ([[4.0, 2.0], [2.0, 1.0]], [2.0, 1.0])],
                             ids=["diagonal", "rank-one"])
    def test_two_by_two_by_hand(self, target, expected):
        # the kept vector is signed so that its largest-magnitude entry is positive
        factor, _ = em_factorize(np.array(target), np.ones((2, 2)), CoreSolveConfig(1))
        np.testing.assert_allclose(factor.ravel(), expected, rtol=0, atol=1e-12)

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

    def test_weights_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="share a shape"):
            em_factorize(np.eye(3), np.ones((2, 2)), CoreSolveConfig(1))

    def test_non_square_target_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            em_factorize(np.ones((2, 3)), np.ones((2, 3)), CoreSolveConfig(1))


class TestBlockKrylov:
    """The truncation step: Rayleigh-Ritz on a block-Krylov space."""

    def test_monotone_trace(self):
        rng = np.random.default_rng(11)
        for n, d in ((400, 20), (450, 40)):
            g, w = random_instance(rng, n, d)
            _, diag = em_factorize(g, w, CoreSolveConfig(d, max_iters=60, tol=1e-14))
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

    @pytest.mark.parametrize("n,d", [(30, 5), (100, 10), (400, 20), (500, 50)])
    def test_residual_close_to_exact_eigh(self, n, d):
        rng = np.random.default_rng(n + d)
        g, w = random_instance(rng, n, d, noise=4.0)
        _, diag = em_factorize(g, w, CoreSolveConfig(d, max_iters=15, tol=1e-14))
        exact = exact_em_oracle(g, w, d, diag.iterations)
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
        # b(steps + 1) > n: the first sweep's space fills all n columns, so with
        # W = 1 one sweep is the exact truncation.  At n = 4b the fourth block
        # fills it and the recurrence stops early; one word more, the last
        # block adds a single column.
        g = random_instance(np.random.default_rng(14), 4 * (dim + 16) + 1, dim)[0]
        for n in (len(g) - 1, len(g)):
            factor, _ = em_factorize(g[:n, :n], np.ones((n, n)), CoreSolveConfig(dim, max_iters=1))
            np.testing.assert_allclose(factor @ factor.T, exact_projection(g[:n, :n], dim), rtol=0, atol=1e-10)

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
        factor, _ = em_factorize(g, np.ones_like(g), CoreSolveConfig(dim, max_iters=1))
        np.testing.assert_allclose(factor @ factor.T, exact_projection(g, dim), rtol=0, atol=1e-10)
        _, ritz = _ritz_psd_factor(g.__matmul__, g[:, :dim + 16], 8, dim)
        np.testing.assert_allclose(ritz.T @ ritz, np.eye(dim), rtol=0, atol=1e-12)

    def test_each_basis_column_multiplied_once(self):
        # the Ritz matrix comes from the Gram-Schmidt coefficients of the
        # recurrence, so after it only the last block is multiplied
        n, d, steps = 600, 20, 8
        g = random_instance(np.random.default_rng(17), n, d)[0]
        sym, b = CountingSym(g), d + 16
        _, ritz = _ritz_psd_factor(sym.__matmul__, g[:, :b], steps, d)
        assert sym.columns == b * (steps + 1)
        np.testing.assert_allclose(ritz.T @ ritz, np.eye(d), rtol=0, atol=1e-12)

    def test_counted_block_deflates_and_escapes(self, monkeypatch):
        # a PMI block of Zipf counts: on the first sweep the Krylov blocks
        # shrink until one adds nothing, and the unit-vector escape goes on
        added = []

        def counted(*args):
            added.append(_append_block(*args))
            return added[-1]

        monkeypatch.setattr("pmivec.core_solver._append_block", counted)
        _, table = zipf_table(700, 40_000, 2, seed=23)
        n, d, steps = 600, 50, 8
        pmi, weights, _ = pmi_block(range(n), range(n), table, PmiConfig())
        sym, b = CountingSym(weights * pmi), d + 16  # the first sweep's imputed block
        _, ritz = _ritz_psd_factor(sym.__matmul__, sym.a[:, :b], steps, d)
        assert sym.columns < b * (steps + 1)
        empty = added.index(0)  # a block with nothing new
        assert 0 < min(added[:empty]) < b  # after blocks that deflated in part
        assert added[empty + 1:empty + 2] > [0]  # the unit vectors of the escape add columns
        np.testing.assert_allclose(ritz.T @ ritz, np.eye(d), rtol=0, atol=1e-12)
        _, diag = em_factorize(pmi, weights, CoreSolveConfig(d, max_iters=5, tol=1e-14))
        exact = exact_em_oracle(pmi, weights, d, diag.iterations)
        assert diag.residuals[-1] <= exact[-1] * 1.001

    @pytest.mark.parametrize("n,d", [(300, 10), (400, 20), (600, 10)])
    def test_exact_low_rank_converges_at_rounding_level(self, n, d):
        # sweep 1 recovers v v^T; later sweeps only move rounding noise, and the
        # first plain one that does not descend is undone and ends the solve
        v = np.random.default_rng(1).normal(size=(n, d))
        g = v @ v.T
        factor, diag = em_factorize(g, np.ones_like(g), CoreSolveConfig(d))
        assert diag.converged and diag.rejected[-1] == diag.iterations <= 4
        assert diag.omegas[-1] == 1.0 and diag.residuals[-1] == diag.residuals[-2]
        assert all(b <= a for a, b in zip(diag.residuals, diag.residuals[1:]))
        assert diag.residuals[-1] < 1e-12 * diag.residuals[0]
        np.testing.assert_allclose(factor @ factor.T, g, atol=1e-10 * np.abs(g).max())

    def test_memory_budget(self):
        # beyond its inputs the solve holds one n x n array, the weighted
        # residual; the Krylov basis, Ritz matrix and row chunks add well under
        # one more
        n, d = 600, 20
        g, w = random_instance(np.random.default_rng(16), n, d)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            em_factorize(g, w, CoreSolveConfig(d, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) <= 2.0


class TestOverRelaxation:
    """Sweeps from the third on take a growing multiple of the EM step; one that
    does not pay is undone."""

    @pytest.mark.parametrize("n", [100, 300], ids=["eigh", "block-krylov"])
    def test_rejected_sweep_keeps_the_last_factor(self, n):
        g, w = pmi_like_instance(np.random.default_rng(0), n, 10)
        _, diag = em_factorize(g, w, CoreSolveConfig(10, max_iters=15))
        assert len(diag.rejected) == 1 and len(diag.omegas) == diag.iterations == 15
        sweep = diag.rejected[0]
        assert diag.omegas[:2] == [1.0, 1.0] and diag.omegas[sweep - 1] > 1.0
        assert diag.omegas[sweep] == 1.0  # the sweep after a rejection is plain
        assert diag.residuals[sweep] == diag.residuals[sweep - 1]
        assert all(b <= a for a, b in zip(diag.residuals, diag.residuals[1:]))
        # a solve that ends on the rejected sweep returns the one before's factor
        cut = CoreSolveConfig(10, max_iters=sweep)
        factor, cut_diag = em_factorize(g, w, cut)
        kept, kept_diag = em_factorize(g, w, CoreSolveConfig(10, max_iters=sweep - 1))
        assert cut_diag.rejected == [sweep] and kept_diag.rejected == []
        assert factor.tobytes() == kept.tobytes()
        assert cut_diag.residuals[-1] == kept_diag.residuals[-1]
        assert weighted_frobenius(g, factor @ factor.T, w) == pytest.approx(cut_diag.residuals[-1], rel=1e-12)

    @pytest.mark.parametrize("n,d", [(100, 10), (300, 10), (400, 25), (600, 20)])
    def test_faster_than_plain_em(self, n, d):
        g, w = pmi_like_instance(np.random.default_rng(1), n, d)
        _, diag = em_factorize(g, w, CoreSolveConfig(d, max_iters=15))
        assert diag.iterations == 15
        plain = exact_em_oracle(g, w, d, 15, growth=1.0)
        assert diag.residuals[-1] <= 0.5 * plain[-1]


class TestAppendBlock:
    """Orthonormalizing a Krylov block against the basis so far, at the deflation floor."""

    n, k, width = 200, 30, 6

    def make(self, rng, unit=False):
        space = np.zeros((self.n, self.n))
        space[:, :self.k] = np.eye(self.n)[:, :self.k] if unit else np.linalg.qr(
            rng.normal(size=(self.n, self.k)))[0]
        return space, space[:, :self.k] @ rng.normal(size=(self.k, self.width))

    def append(self, space, block):
        floor = _DEFLATE * np.linalg.norm(block, axis=0).max()
        return _append_block(space, self.k, block, floor)

    def outside(self, rng, space):
        """A unit vector orthogonal to the basis so far."""
        u = rng.normal(size=self.n)
        for _ in range(2):
            u -= space[:, :self.k] @ (space[:, :self.k].T @ u)
        return u / np.linalg.norm(u)

    @pytest.mark.parametrize("kind", ["noise", "exact-zeros", "zero-block"])
    def test_block_in_the_space_adds_nothing(self, kind):
        rng = np.random.default_rng(18)
        space, block = self.make(rng, unit=kind == "exact-zeros")
        if kind == "noise":  # each column leaves the space by 1e-13 of its norm
            noise = rng.normal(size=block.shape)
            block += 1e-13 * noise * np.linalg.norm(block, axis=0) / np.linalg.norm(noise, axis=0)
        elif kind == "zero-block":
            block[:] = 0.0
        before = space.copy()
        assert self.append(space, block) == 0
        np.testing.assert_array_equal(space, before)

    def test_one_new_direction_beside_noise(self):
        # every column leaves the space along one direction; the Gram matrix
        # rounds at about 1e-8 of its norm, and that must not pass as more directions
        rng = np.random.default_rng(19)
        space, block = self.make(rng)
        block += 1e-13 * rng.normal(size=block.shape)
        block += np.outer(self.outside(rng, space), rng.normal(size=self.width))
        assert self.append(space, block) == 1

    def test_small_component_outside_is_kept(self):
        rng = np.random.default_rng(20)
        space, block = self.make(rng)
        u = self.outside(rng, space)
        block[:, 2] += 1e-4 * np.linalg.norm(block[:, 2]) * u
        assert self.append(space, block) == 1
        basis = space[:, :self.k + 1]
        np.testing.assert_allclose(basis.T @ basis, np.eye(self.k + 1), rtol=0, atol=1e-12)
        assert abs(abs(u @ basis[:, -1]) - 1.0) < 1e-10


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            CoreSolveConfig(0)
        with pytest.raises(ValueError):
            CoreSolveConfig(2, max_iters=0)
        with pytest.raises(ValueError):
            CoreSolveConfig(2, tol=0.0)

    @pytest.mark.parametrize("tol", [True, "0.1", math.nan, math.inf, -10 ** 400],
                             ids=["bool", "text", "nan", "inf", "huge-negative-int"])
    def test_tol_must_be_a_finite_number(self, tol):
        with pytest.raises(ValueError, match="tol"):
            CoreSolveConfig(2, tol=tol)

    @pytest.mark.parametrize("tol", [np.float64(1e-3), np.float32(1e-3), np.int64(1)],
                             ids=["float64", "float32", "int64"])
    def test_numpy_tol_accepted(self, tol):
        assert CoreSolveConfig(2, tol=tol).tol == tol

    @pytest.mark.parametrize("field", ["dim", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "bool", "text"])
    def test_whole_number_settings(self, field, value):
        settings = {"dim": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CoreSolveConfig(**settings)
        settings[field] = np.int64(3)
        assert getattr(CoreSolveConfig(**settings), field) == 3

    def test_integer_too_large_for_a_float_meets_the_range_check_only(self):
        assert CoreSolveConfig(2, max_iters=10 ** 400, tol=10 ** 400).max_iters == 10 ** 400
