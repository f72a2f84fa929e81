"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Expected values come from
independent oracles implemented locally in this module: brute-force pair
counting, plain/projected gradient descent, and hand rank computations.
"""

import gc
import json
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import smokedata

from pmivec.cli import main
from pmivec.core_solver import CoreSolveConfig, em_factorize, weighted_frobenius
from pmivec.corpus import CooccurrenceTable, Vocabulary, count_bigrams, count_unigrams
from pmivec.embeddings import EmbeddingSet, load_vec
from pmivec.evaluation import (
    AnalogyTestset,
    ChoiceTestset,
    SimilarityTestset,
    cosine,
    eval_analogy_3cosmul,
    eval_choice,
    eval_similarity,
    spearman,
)
from pmivec.incremental import solve_noncore_word, solve_words
from pmivec.statistics import PmiConfig, PmiRows, pmi_block

TESTSETS = Path(__file__).parent / "data" / "testsets"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------


def brute_force_pairs(tokens, vocab, window):
    pairs = Counter()
    for t in range(len(tokens)):
        for k in range(1, window + 1):
            if t + k < len(tokens):
                a, b = tokens[t], tokens[t + k]
                if a in vocab and b in vocab:
                    pairs[(vocab.index[a], vocab.index[b])] += 1
    return pairs


def ridge_objective(v, g, w, core, mu):
    return 2.0 * float(np.sum(w * (g - core @ v) ** 2)) + mu * float(v @ v)


def ridge_gradient(v, g, w, core, mu):
    return -4.0 * core.T @ (w * (g - core @ v)) + 2.0 * mu * v


def gradient_descent_oracle(g, w, core, mu, steps=10_000):
    d = core.shape[1]
    a = 2.0 * (core.T * w) @ core + mu * np.eye(d)
    b = 2.0 * (core.T @ (w * g))
    lipschitz = 2.0 * max(float(np.linalg.eigvalsh(a).max()), 1e-12)
    v = np.zeros(d)
    for _ in range(steps):
        v = v - 2.0 * (a @ v - b) / lipschitz
    return v


def hand_ranks(values):
    values = list(values)
    out = []
    for x in values:
        below = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        out.append(below + (equal + 1) / 2.0)
    return np.array(out)


# --------------------------------------------------------------------------
# shared random instances
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def weighted_instances():
    """20 random weighted fits (n=30, d=5) solved to a tight tolerance."""
    rng = np.random.default_rng(2024)
    solved = []
    for _ in range(20):
        v = rng.normal(size=(30, 5))
        g = v @ v.T
        noise = rng.normal(size=(30, 30))
        g = g + 0.25 * (noise + noise.T)
        w = rng.uniform(0.0, 1.0, size=(30, 30))
        w = (w + w.T) / 2.0
        factor, diag = em_factorize(g, w, CoreSolveConfig(5, max_iters=40, tol=1e-14))
        solved.append((g, w, factor, diag))
    return solved


@pytest.fixture(scope="module")
def ridge_instances():
    """50 random regressions, each solved at mu in {0, 0.1, 1, 10}."""
    rng = np.random.default_rng(77)
    instances = []
    for _ in range(50):
        c = int(rng.integers(1, 31))
        d = int(rng.integers(1, 9))
        core = rng.normal(size=(c, d))
        g = rng.normal(size=c)
        w = rng.uniform(0.0, 1.0, size=c)
        by_mu = {}
        import warnings

        for mu in (0.0, 0.1, 1.0, 10.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                by_mu[mu] = solve_noncore_word(g, w, core, mu)
        instances.append((g, w, core, by_mu))
    return instances


# --------------------------------------------------------------------------
# criteria 1-3: core solver
# --------------------------------------------------------------------------


def test_criterion_01_exact_recovery():
    with criterion("01 exact recovery"):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(50, 10))
        g = v @ v.T
        start = time.perf_counter()
        factor, diag = em_factorize(g, np.ones_like(g), CoreSolveConfig(10))
        elapsed = time.perf_counter() - start
        assert diag.residuals[-1] < 1e-8
        assert diag.iterations <= 2
        assert elapsed < 10.0


def test_criterion_02_monotone_descent(weighted_instances):
    with criterion("02 monotone descent"):
        for _, _, _, diag in weighted_instances:
            residuals = np.array(diag.residuals)
            assert len(residuals) > 2
            assert np.all(np.diff(residuals) <= 1e-12)


def test_criterion_03_psd_contract(weighted_instances):
    with criterion("03 PSD contract"):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(50, 10))
        g = v @ v.T
        factor_exact, _ = em_factorize(g, np.ones_like(g), CoreSolveConfig(10))
        factors = [factor_exact] + [f for _, _, f, _ in weighted_instances]
        dims = [10] + [5] * len(weighted_instances)
        for factor, dim in zip(factors, dims):
            x = factor @ factor.T
            evals = np.linalg.eigvalsh(x)
            assert evals.min() >= -1e-9
            assert np.sum(evals > 1e-8 * max(evals.max(), 1.0)) <= dim


# --------------------------------------------------------------------------
# criteria 4-5: per-word ridge solver
# --------------------------------------------------------------------------


def test_criterion_04_ridge_oracle(ridge_instances):
    with criterion("04 ridge oracle"):
        checked = 0
        for g, w, core, by_mu in ridge_instances:
            for mu, v in by_mu.items():
                grad = ridge_gradient(v, g, w, core, mu)
                grad0 = ridge_gradient(np.zeros_like(v), g, w, core, mu)
                assert np.linalg.norm(grad) <= 1e-8 * (1.0 + np.linalg.norm(grad0))
                v_gd = gradient_descent_oracle(g, w, core, mu)
                assert (
                    ridge_objective(v, g, w, core, mu)
                    <= ridge_objective(v_gd, g, w, core, mu) + 1e-10
                )
                checked += 1
        assert checked == 200


def test_criterion_05_shrinkage(ridge_instances):
    with criterion("05 shrinkage"):
        for _, _, _, by_mu in ridge_instances:
            norms = [np.linalg.norm(by_mu[mu]) for mu in (0.0, 0.1, 1.0, 10.0)]
            assert np.all(np.diff(norms) <= 1e-12)


# --------------------------------------------------------------------------
# criterion 6: incremental consistency
# --------------------------------------------------------------------------


def test_criterion_06_incremental_consistency():
    with criterion("06 incremental consistency"):
        rng = np.random.default_rng(6)
        c, extra, d = 40, 10, 5
        true = rng.normal(size=(c + extra, d))
        gram = true @ true.T
        core = true[:c]
        weights = rng.uniform(0.5, 1.0, size=c)
        for k in range(extra):
            g_row = gram[:c, c + k]
            v = solve_noncore_word(g_row, weights, core, mu=0.0)
            assert np.max(np.abs(core @ v - g_row)) < 1e-6


# --------------------------------------------------------------------------
# criterion 7: counting oracle
# --------------------------------------------------------------------------


def test_criterion_07_counting_oracle():
    with criterion("07 counting oracle"):
        rng = np.random.default_rng(7)
        names = [chr(ord("a") + k // 26) + chr(ord("a") + k % 26) for k in range(14)]
        names += ["oov"]
        for _ in range(100):
            length = int(rng.integers(0, 10_001))
            window = int(rng.integers(1, 6))
            tokens = [names[int(k)] for k in rng.integers(0, len(names), length)]
            vocab = count_unigrams(iter(t for t in tokens if t != "oov"))
            if len(vocab) == 0:
                continue
            table = count_bigrams(iter(tokens), vocab, window)
            got = Counter(
                {(i, j): c for i, j, c in table.pairs()}
            )
            assert got == brute_force_pairs(tokens, vocab, window)


# --------------------------------------------------------------------------
# criterion 8: independence null
# --------------------------------------------------------------------------


def test_criterion_08_independence_null():
    with criterion("08 independence null"):
        rng = np.random.default_rng(8)
        names = [chr(ord("a") + k // 26) + chr(ord("a") + k % 26) for k in range(20)]
        tokens = [names[int(k)] for k in rng.integers(0, 20, 4000)]
        vocab = count_unigrams(iter(tokens))
        table = count_bigrams(iter(tokens), vocab, 3)
        pmi, _, _ = pmi_block(range(20), range(20), table, PmiConfig(lam=1.0))
        assert np.max(np.abs(pmi)) < 1e-12


# --------------------------------------------------------------------------
# criterion 9: evaluation oracles
# --------------------------------------------------------------------------


def test_criterion_09_evaluation_oracles():
    with criterion("09 evaluation oracles"):
        # tie handling against a hand rank computation
        for xs, ys in [
            ([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0]),
            ([5.0, 5.0, 1.0, 3.0, 3.0], [2.0, 4.0, 4.0, 1.0, 0.0]),
        ]:
            rx = hand_ranks(xs)
            ry = hand_ranks(ys)
            rx = rx - rx.mean()
            ry = ry - ry.mean()
            expected = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
            assert abs(spearman(xs, ys) - expected) < 1e-12

        # 3CosMul picks the analytically maximal candidate on 5 words
        rng = np.random.default_rng(9)
        words = ["va", "vb", "vc", "vd", "ve"]
        emb = EmbeddingSet(words, rng.normal(size=(5, 4)))
        a, a_star, b = "va", "vb", "vc"

        def score(x):
            def s(u, other):
                return (cosine(emb.vector(u), emb.vector(other)) + 1.0) / 2.0

            return s(x, b) * s(x, a_star) / (s(x, a) + 0.001)

        best = max(("vd", "ve"), key=score)
        report = eval_analogy_3cosmul(emb, AnalogyTestset(((a, a_star, b, best),)))
        assert report.metric == 1.0

        # scaling every vector by 7.3 changes no metric
        words = [f"s{chr(ord('a') + k)}" for k in range(10)]
        vectors = rng.normal(size=(10, 5))
        base = EmbeddingSet(words, vectors)
        scaled = EmbeddingSet(words, 7.3 * vectors)
        sim = SimilarityTestset(
            tuple((words[k], words[(k + 3) % 10], float(k)) for k in range(8))
        )
        ana = AnalogyTestset(
            tuple(
                tuple(words[int(i)] for i in rng.choice(10, 4, replace=False))
                for _ in range(5)
            )
        )
        cho = ChoiceTestset(
            tuple(
                (
                    words[int(rng.integers(10))],
                    tuple(words[int(i)] for i in rng.choice(10, 4, replace=False)),
                    int(rng.integers(4)),
                )
                for _ in range(5)
            )
        )
        assert abs(eval_similarity(base, sim).metric - eval_similarity(scaled, sim).metric) < 1e-12
        assert eval_analogy_3cosmul(base, ana).metric == eval_analogy_3cosmul(scaled, ana).metric
        assert eval_choice(base, cho).metric == eval_choice(scaled, cho).metric


# --------------------------------------------------------------------------
# criterion 10: complexity shape
# --------------------------------------------------------------------------


def test_criterion_10_complexity_shape():
    with criterion("10 complexity shape"):
        rng = np.random.default_rng(10)
        c, d, n_extra = 500, 25, 4000
        n = c + n_extra
        words = []
        for i in range(n):
            name, k = "", i
            for _ in range(4):
                name = chr(ord("a") + k % 26) + name
                k //= 26
            words.append(name)
        counts = list(range(n + 5, 5, -1))
        vocab = Vocabulary(words, counts, sum(counts))
        rows = {}
        for i in range(n):
            ctx = rng.choice(c, size=40, replace=False)
            rows[i] = {int(j): int(v) for j, v in zip(ctx, rng.integers(1, 6, 40))}
        table = CooccurrenceTable.from_rows(2, vocab, rows)
        cfg = PmiConfig(0.1)
        _, _, normalizer = pmi_block(range(c), range(c), table, cfg)
        core_vectors = rng.normal(size=(c, d))
        cols = np.arange(c)

        def consume(n_words):
            acc = 0.0
            rows_of = PmiRows(cols, table, cfg, normalizer)
            stream = solve_words(core_vectors, rows_of, range(c, c + n_words), mu=1.0)
            for _, vec, _ in stream:
                acc += float(vec[0])
            return acc

        def best_time(n_words, reps=3):
            # CPU time of this process: other processes' load stretches the
            # wall clock but not the work done here
            best = float("inf")
            for _ in range(reps):
                gc.collect()
                start = time.process_time()
                consume(n_words)
                best = min(best, time.process_time() - start)
            return best

        def retained_bytes(n_words):
            gc.collect()
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            consume(n_words)
            gc.collect()
            now = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            return now - base

        consume(50)  # warm up caches and allocator
        t_single = best_time(2000)
        t_double = best_time(4000)
        ratio = t_double / t_single
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3, f"time ratio {ratio:.3f}"

        one_mb = 1024 * 1024
        r_single = retained_bytes(2000)
        r_double = retained_bytes(4000)
        assert abs(r_double - r_single) < one_mb
        assert r_single < 2 * one_mb and r_double < 2 * one_mb


# --------------------------------------------------------------------------
# criterion 11: end-to-end pipeline
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    corpus = root / "corpus.txt"
    tokens = smokedata.write_corpus(corpus)
    return root, corpus, tokens


def run_pipeline(workdir, corpus):
    workdir.mkdir(exist_ok=True)
    uni = workdir / "unigrams.txt"
    bi = workdir / "bigrams.txt"
    core = workdir / "core.vec"
    stage1 = workdir / "stage1.vec"
    stage2 = workdir / "stage2.vec"
    report = workdir / "report.txt"
    steps = [
        ["count-unigrams", "--input", str(corpus), "--min-count", "5", "--out", str(uni)],
        ["count-bigrams", "--input", str(corpus), "--unigrams", str(uni),
         "--window", "2", "--out", str(bi)],
        ["factorize-core", "--bigrams", str(bi), "--unigrams", str(uni),
         "--core-size", "2000", "--dim", "50", "--iters", "15", "--out", str(core)],
        ["factorize-noncore", "--bigrams", str(bi), "--unigrams", str(uni),
         "--core-vec", str(core), "--count", "1000", "--mu", "2.0", "--out", str(stage1)],
        ["factorize-noncore", "--bigrams", str(bi), "--unigrams", str(uni),
         "--core-vec", str(stage1), "--core-size", "2000",
         "--count", "1000", "--mu", "4.0", "--out", str(stage2)],
        ["evaluate", "--vec", str(stage2), "--testset-dir", str(TESTSETS),
         "--out", str(report)],
    ]
    for argv in steps:
        assert main(argv) == 0, f"stage failed: {argv[0]}"
    return stage2, report


def test_criterion_11_end_to_end(smoke_corpus):
    with criterion("11 end-to-end pipeline"):
        root, corpus, n_tokens = smoke_corpus
        assert 900_000 <= n_tokens <= 1_100_000

        start = time.perf_counter()
        vec_a, report_a = run_pipeline(root / "run1", corpus)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"

        emb = load_vec(vec_a)
        assert len(emb) == 2000 + 1000 + 1000
        assert emb.dim == 50

        vec_b, _ = run_pipeline(root / "run2", corpus)
        assert vec_a.read_bytes() == vec_b.read_bytes()

        rho = None
        for line in report_a.read_text().splitlines():
            if line.startswith("mini.spearman="):
                rho = float(line.split("=")[1])
        assert rho is not None and rho > 0.0, f"spearman {rho}"
