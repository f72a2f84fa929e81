import math

import numpy as np
import pytest

from pmivec.corpus import count_bigrams, count_unigrams
from pmivec.incremental import DegeneracyWarning, solve_noncore_word, solve_words
from pmivec.statistics import PmiConfig, PmiRows, pmi_block


def ridge_objective(v, g, w, core, mu):
    """The quantity being minimized, written independently of the solver."""
    return 2.0 * float(np.sum(w * (g - core @ v) ** 2)) + mu * float(v @ v)


def ridge_gradient(v, g, w, core, mu):
    return -4.0 * core.T @ (w * (g - core @ v)) + 2.0 * mu * v


def gradient_descent_oracle(g, w, core, mu, steps=2000):
    """Plain gradient descent from zero with a safe fixed step size."""
    a = 2.0 * (core.T * w) @ core + mu * np.eye(core.shape[1])
    lipschitz = 2.0 * max(float(np.linalg.eigvalsh(a).max()), 1e-12)
    v = np.zeros(core.shape[1])
    for _ in range(steps):
        v = v - ridge_gradient(v, g, w, core, mu) / lipschitz
    return v


class TestSolveNoncoreWord:
    def test_pure_penalty_gives_zero(self):
        core = np.ones((3, 2))
        v = solve_noncore_word(np.zeros(3), np.zeros(3), core, mu=1.5)
        np.testing.assert_allclose(v, 0.0)

    def test_scalar_calculus_example(self):
        # d=1, c=1, w=1, g=2, core vector 1, mu=2: minimum of 2(2-v)^2 + 2v^2
        v = solve_noncore_word(np.array([2.0]), np.array([1.0]), np.array([[1.0]]), 2.0)
        assert v == pytest.approx([1.0])

    def test_huge_penalty_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        core = rng.normal(size=(10, 4))
        g = rng.normal(size=10)
        w = rng.uniform(0.2, 1.0, size=10)
        v = solve_noncore_word(g, w, core, mu=1e9)
        assert np.linalg.norm(v) < 1e-6

    def test_degenerate_system_warns_and_returns_min_norm(self):
        # a single core word cannot pin down two dimensions
        core = np.array([[1.0, 0.0]])
        with pytest.warns(DegeneracyWarning):
            v = solve_noncore_word(np.array([3.0]), np.array([1.0]), core, mu=0.0)
        np.testing.assert_allclose(v, [3.0, 0.0], atol=1e-10)

    def test_gradient_norm_postcondition(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            c = int(rng.integers(1, 31))
            d = int(rng.integers(1, 9))
            mu = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
            core = rng.normal(size=(c, d))
            g = rng.normal(size=c)
            w = rng.uniform(0.0, 1.0, size=c)
            with pytest.warns((DegeneracyWarning, UserWarning)) if (mu == 0.0 and c < d) else np.testing.assert_no_warnings():
                v = solve_noncore_word(g, w, core, mu)
            grad = ridge_gradient(v, g, w, core, mu)
            grad0 = ridge_gradient(np.zeros(d), g, w, core, mu)
            assert np.linalg.norm(grad) <= 1e-8 * (1.0 + np.linalg.norm(grad0))

    def test_objective_beats_gradient_descent(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c, d = int(rng.integers(2, 20)), int(rng.integers(1, 7))
            mu = float(rng.choice([0.1, 1.0]))
            core = rng.normal(size=(c, d))
            g = rng.normal(size=c)
            w = rng.uniform(0.0, 1.0, size=c)
            v = solve_noncore_word(g, w, core, mu)
            v_gd = gradient_descent_oracle(g, w, core, mu)
            assert ridge_objective(v, g, w, core, mu) <= ridge_objective(v_gd, g, w, core, mu) + 1e-10

    def test_shrinkage_in_mu(self):
        rng = np.random.default_rng(3)
        core = rng.normal(size=(12, 5))
        g = rng.normal(size=12)
        w = rng.uniform(0.1, 1.0, size=12)
        norms = [
            np.linalg.norm(solve_noncore_word(g, w, core, mu)) for mu in (0.0, 1.0, 10.0)
        ]
        assert norms[0] >= norms[1] >= norms[2]

    def test_input_validation(self):
        core = np.ones((3, 2))
        with pytest.raises(ValueError):
            solve_noncore_word(np.zeros(2), np.zeros(3), core, 1.0)
        with pytest.raises(ValueError):
            solve_noncore_word(np.zeros(3), -np.ones(3), core, 1.0)
        with pytest.raises(ValueError):
            solve_noncore_word(np.zeros(3), np.ones(3), core, -1.0)

    def test_nan_weight_rejected(self):
        core = np.ones((3, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            solve_noncore_word(np.zeros(3), np.array([1.0, np.nan, 1.0]), core, 1.0)


def synthetic_setup(rng, n, window=2, reps=900):
    """A corpus over n two-letter words, its table and statistics."""
    words = [chr(ord("a") + k // 26) + chr(ord("a") + k % 26) for k in range(n)]
    tokens = [words[int(k)] for k in rng.integers(0, n, reps)]
    vocab = count_unigrams(iter(tokens))
    table = count_bigrams(iter(tokens), vocab, window)
    return vocab, table


class TestSolveWords:
    def test_no_words_yields_nothing(self):
        rng = np.random.default_rng(5)
        vocab, table = synthetic_setup(rng, 8)
        core = rng.normal(size=(len(vocab), 3))
        rows_of = PmiRows(np.arange(len(vocab)), table, PmiConfig())
        stream = solve_words(core, rows_of, range(len(vocab), len(vocab)), mu=1.0)
        assert list(stream) == []

    def test_mu_monotone_shrinkage_per_word(self):
        rng = np.random.default_rng(8)
        vocab, table = synthetic_setup(rng, 12)
        cfg = PmiConfig(0.1)
        core = range(6)
        _, _, normalizer = pmi_block(core, core, table, cfg)
        core_vectors = rng.normal(size=(6, 3))
        rows_of = PmiRows(np.arange(6), table, cfg, normalizer)
        norms = {}
        for mu in (0.0, 1.0, 10.0):
            stream = solve_words(core_vectors, rows_of, range(6, 12), mu)
            norms[mu] = np.array([np.linalg.norm(vec) for _, vec, _ in stream])
        assert np.all(norms[0.0] >= norms[1.0] - 1e-12)
        assert np.all(norms[1.0] >= norms[10.0] - 1e-12)


class TestBatchConsistency:
    def test_exact_recovery_of_crossblock_products(self):
        # G built exactly as a rank-5 gram matrix: with dense weights and no
        # ridge penalty, each per-word solve must reproduce the cross block
        rng = np.random.default_rng(9)
        c, extra, d = 40, 10, 5
        true = rng.normal(size=(c + extra, d))
        gram = true @ true.T
        core = true[:c]
        weights = rng.uniform(0.5, 1.0, size=c)
        for k in range(extra):
            g_row = gram[:c, c + k]
            v = solve_noncore_word(g_row, weights, core, mu=0.0)
            np.testing.assert_allclose(core @ v, g_row, atol=1e-6)


@pytest.fixture(scope="module")
def wide_growth():
    """320 core words at d = 20 and 200 words to grow: several groups, and
    products large enough for BLAS to tile them."""
    rng = np.random.default_rng(16)
    vocab, table = synthetic_setup(rng, 520, reps=40_000)
    assert len(vocab) == 520
    c, core, cfg = 320, range(320), PmiConfig(0.1)
    rows_of = PmiRows(core, table, cfg, pmi_block(core, core, table, cfg)[2])
    return rng.normal(size=(c, 20)), rows_of, range(c, c + 200)


def solved(core, rows_of, order, mu=2.0):
    return {i: vec for i, vec, _ in solve_words(core, rows_of, order, mu)}


class TestGroupSolve:
    def test_bits_do_not_depend_on_the_other_words(self, wide_growth):
        core, rows_of, words = wide_growth
        whole = solved(core, rows_of, words)
        assert list(whole) == list(words)
        requests = {
            f"chunks of {size}": [words[k:k + size] for k in range(0, len(words), size)]
            for size in (37, 100)
        }
        requests["one at a time"] = [range(i, i + 1) for i in words]
        for name, calls in requests.items():
            got = {}
            for call in calls:
                got.update(solved(core, rows_of, call))
            for i in words:
                np.testing.assert_array_equal(got[i], whole[i], err_msg=f"{name}: word {i}")

    def test_one_word_solve_agrees_and_solves_the_normal_equations(self, wide_growth):
        core, rows_of, words = wide_growth
        group = words[:70]
        g, w = rows_of(group)
        for (i, vec, degenerate), gk, wk in zip(solve_words(core, rows_of, group, 2.0), g, w):
            assert not degenerate
            alone = solve_noncore_word(gk, wk, core, 2.0)
            assert np.linalg.norm(alone - vec) <= 1e-12 * np.linalg.norm(vec)
            a = 2.0 * (core.T * wk) @ core + 2.0 * np.eye(core.shape[1])
            b = 2.0 * core.T @ (wk * gk)
            assert np.linalg.norm(a @ vec - b) <= 1e-12 * np.linalg.norm(b)

    def test_unregularized_singular_rows_take_the_minimum_norm_answer(self, wide_growth):
        core, rows_of, words = wide_growth
        flat = core.copy()
        flat[:, -1] = 0.0  # no core vector reaches the last dimension
        group = words[:3]
        g, w = rows_of(group)
        for (i, vec, degenerate), gk, wk in zip(solve_words(flat, rows_of, group, 0.0), g, w):
            assert degenerate
            assert abs(vec[-1]) <= 1e-12 * np.linalg.norm(vec)
            root = np.sqrt(wk)
            fit = np.linalg.lstsq(flat[:, :-1] * root[:, None], root * gk, rcond=None)[0]
            np.testing.assert_allclose(vec[:-1], fit, rtol=1e-8)
            with pytest.warns(DegeneracyWarning):
                alone = solve_noncore_word(gk, wk, flat, 0.0)
            assert np.linalg.norm(alone - vec) <= 1e-10 * np.linalg.norm(vec)


@pytest.fixture(scope="module")
def growth_setup():
    rng = np.random.default_rng(9)
    vocab, table = synthetic_setup(rng, 8)
    core = range(4)
    normalizer = pmi_block(core, core, table, PmiConfig())[2]
    return rng.normal(size=(4, 2)), PmiRows(core, table, PmiConfig(), normalizer)


@pytest.mark.parametrize("mu", [True, "1.0", math.nan, math.inf, -1.0],
                         ids=["bool", "text", "nan", "inf", "negative"])
def test_growth_solvers_refuse_mu(growth_setup, mu):
    core, rows_of = growth_setup
    with pytest.raises(ValueError, match="mu"):
        solve_noncore_word(np.zeros(4), np.ones(4), core, mu)
    with pytest.raises(ValueError, match="mu"):
        list(solve_words(core, rows_of, range(4, 6), mu))


@pytest.mark.parametrize("mu", [np.float64(2.0), np.float32(2.0), np.int64(2)],
                         ids=["float64", "float32", "int64"])
def test_growth_solvers_accept_numpy_mu(growth_setup, mu):
    core, rows_of = growth_setup
    g, w = rows_of(range(4, 5))
    np.testing.assert_array_equal(solve_noncore_word(g[0], w[0], core, mu),
                                  solve_noncore_word(g[0], w[0], core, 2.0))
    (_, got, _), = solve_words(core, rows_of, range(4, 5), mu)
    (_, expected, _), = solve_words(core, rows_of, range(4, 5), 2.0)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("words", [[4, 5], np.arange(4, 6), range(6, 4, -1), range(4, 9)],
                         ids=["list", "array", "reversed", "beyond"])
def test_solve_words_takes_a_step_one_range(growth_setup, words):
    core, rows_of = growth_setup
    with pytest.raises(ValueError, match=r"words must be a step-1 range inside the 8 vocabulary words"):
        next(solve_words(core, rows_of, words, 2.0))
