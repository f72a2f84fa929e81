import math
import tracemalloc

import numpy as np
import pytest

from pmivec.corpus import CooccurrenceTable, Vocabulary, count_bigrams, count_unigrams
from pmivec.statistics import (
    BATCH_WORDS,
    PmiConfig,
    PmiRows,
    pmi_block,
    unigram_probs,
    weight_transform,
)


def smoothed_bigram_prob(i, j, table, probs, cfg):
    """Scalar oracle: interpolated probability of the symmetrized pair (i, j)."""
    if table.total_pairs == 0:
        raise ValueError("table holds no pairs")
    emp = (table.pair_count(i, j) + table.pair_count(j, i)) / (2.0 * table.total_pairs)
    return (1.0 - cfg.lam) * emp + cfg.lam * float(probs[i] * probs[j])


def make_table(tokens, window, min_count=1):
    vocab = count_unigrams(iter(tokens), min_count=min_count)
    return vocab, count_bigrams(iter(tokens), vocab, window)


def pmi_rows_oracle(rows, cols, table, cfg, normalizer=1.0):
    """Out-of-place PMI and weight rows from a dense count matrix."""
    n = len(table.vocab)
    dense = np.zeros((n, n))
    for i, j, count in table.pairs():
        dense[i, j] = count
    counts = (dense + dense.T)[np.ix_(rows, cols)]
    probs = unigram_probs(table.vocab)
    indep = np.outer(probs[rows], probs[cols])
    counts /= 2.0 * table.total_pairs
    p = (1.0 - cfg.lam) * counts + cfg.lam * indep
    mask = p > 0.0
    pmi = np.zeros_like(p)
    pmi[mask] = np.log(p[mask] / indep[mask])
    weights = weight_transform(p, cfg)
    weights[~mask] = 0.0
    if normalizer != 1.0:
        weights /= normalizer
    return pmi, weights


def zipf_table(n_words, n_tokens, window, seed):
    rng = np.random.default_rng(seed)
    words = [f"w{k:04d}" for k in range(n_words)]
    return make_table([words[int(k)] for k in rng.zipf(1.5, n_tokens) % n_words], window)


class TestConfigs:
    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_smoothing_bounds(self, lam):
        with pytest.raises(ValueError):
            PmiConfig(lam=lam)

    def test_weight_config_validation(self):
        with pytest.raises(ValueError):
            PmiConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PmiConfig(cap=-1.0)


class TestUnigramDistribution:
    def test_direct_ratio(self):
        vocab = Vocabulary(["a", "b"], [3, 1], 4)
        np.testing.assert_allclose(unigram_probs(vocab), [0.75, 0.25])

    def test_single_word(self):
        vocab = Vocabulary(["a"], [5], 5)
        np.testing.assert_allclose(unigram_probs(vocab), [1.0])

    def test_symmetry(self):
        vocab = Vocabulary(["a", "b", "c", "d"], [2, 2, 2, 2], 8)
        np.testing.assert_allclose(unigram_probs(vocab), [0.25] * 4)

    def test_empty_vocab_rejected(self):
        vocab = count_unigrams(iter(["a"]), min_count=9)
        table = CooccurrenceTable.from_rows(1, vocab, {})
        with pytest.raises(ValueError):
            PmiRows([], table, PmiConfig())


class TestSmoothedProbability:
    def test_full_backoff_is_unigram_product(self):
        vocab, table = make_table(["a", "b", "a", "c"], 2)
        probs = unigram_probs(vocab)
        i, j = vocab.index["a"], vocab.index["c"]
        got = smoothed_bigram_prob(i, j, table, probs, PmiConfig(lam=1.0))
        assert got == float(probs[i] * probs[j])

    def test_no_smoothing_unseen_pair_is_zero(self):
        vocab, table = make_table(["a", "b", "c", "b", "a"], 1)
        probs = unigram_probs(vocab)
        i, j = vocab.index["a"], vocab.index["c"]
        assert smoothed_bigram_prob(i, j, table, probs, PmiConfig(lam=0.0)) == 0.0

    def test_hand_arithmetic_on_window_two_example(self):
        # counts (a,b)=1 and (b,a)=1 out of 5 pairs total gives 2/10
        vocab, table = make_table(["a", "b", "a", "c"], 2)
        probs = unigram_probs(vocab)
        i, j = vocab.index["a"], vocab.index["b"]
        got = smoothed_bigram_prob(i, j, table, probs, PmiConfig(lam=0.0))
        assert got == pytest.approx(0.2, abs=1e-15)

    def test_empty_table_rejected(self):
        vocab, table = make_table(["a"], 2)
        probs = unigram_probs(vocab)
        with pytest.raises(ValueError):
            smoothed_bigram_prob(0, 0, table, probs, PmiConfig())


class TestWeightTransform:
    def test_zero_maps_to_zero(self):
        assert weight_transform(0.0, PmiConfig(alpha=0.5)) == 0.0

    def test_identity_at_alpha_one(self):
        assert weight_transform(0.2, PmiConfig(alpha=1.0)) == pytest.approx(0.2)

    def test_square_root(self):
        assert weight_transform(0.25, PmiConfig(alpha=0.5)) == pytest.approx(0.5)

    def test_cap_limits_input(self):
        assert weight_transform(0.9, PmiConfig(alpha=1.0, cap=0.5)) == pytest.approx(0.5)

    def test_monotone_in_p_for_random_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cfg = PmiConfig(
                alpha=float(rng.uniform(0.1, 3.0)),
                cap=float(rng.uniform(0.05, 1.0)) if rng.random() < 0.5 else None,
            )
            p = np.sort(rng.uniform(0.0, 1.0, size=20))
            w = weight_transform(p, cfg)
            assert np.all(np.diff(w) >= 0.0)


class TestPmiBlock:
    def test_full_backoff_gives_exactly_zero_pmi(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a"], 2)
        pmi, _, _ = pmi_block(
            range(len(vocab)), range(len(vocab)), table, PmiConfig(lam=1.0)
        )
        assert np.all(pmi == 0.0)

    def test_zero_mass_entries_masked(self):
        vocab, table = make_table(["a", "b", "c", "b", "a"], 1)
        pmi, weights, _ = pmi_block(
            range(len(vocab)), range(len(vocab)), table, PmiConfig(lam=0.0)
        )
        i, j = vocab.index["a"], vocab.index["c"]
        assert pmi[i, j] == 0.0
        assert weights[i, j] == 0.0

    def test_normalized_weight_peak_is_exactly_one(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a"], 2)
        _, weights, normalizer = pmi_block(
            range(len(vocab)), range(len(vocab)), table, PmiConfig()
        )
        assert weights.max() == 1.0
        assert normalizer > 0.0

    def test_matches_scalar_probabilities(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a", "c"], 3)
        probs = unigram_probs(vocab)
        cfg = PmiConfig(lam=0.25)
        pmi, _, _ = pmi_block(range(len(vocab)), range(len(vocab)), table, cfg)
        for i in range(len(vocab)):
            for j in range(len(vocab)):
                p = smoothed_bigram_prob(i, j, table, probs, cfg)
                expected = math.log(p / float(probs[i] * probs[j])) if p > 0 else 0.0
                assert pmi[i, j] == pytest.approx(expected, abs=1e-15)

    def test_two_word_corpus_against_scalar_script(self):
        # alternating a b ... of length 10^4, window 1, no smoothing
        tokens = ["a", "b"] * 5000
        vocab, table = make_table(tokens, 1)
        pmi, _, _ = pmi_block(range(2), range(2), table, PmiConfig(lam=0.0))
        i, j = vocab.index["a"], vocab.index["b"]
        # scalar computation straight from raw counts with plain floats
        c_ab = table.pair_count(i, j)
        c_ba = table.pair_count(j, i)
        p_emp = (c_ab + c_ba) / (2.0 * table.total_pairs)
        expected = math.log(p_emp / (0.5 * 0.5))
        assert abs(pmi[i, j] - expected) < 1e-12

    def test_transpose_symmetry_between_blocks(self):
        rng = np.random.default_rng(3)
        words = [chr(ord("a") + k) * 2 for k in range(8)]
        tokens = [words[int(k)] for k in rng.integers(0, 8, 600)]
        vocab, table = make_table(tokens, 3)
        cfg = PmiConfig(lam=0.2)
        rows, cols = range(0, 3), range(3, 8)
        ab_g, ab_w, _ = pmi_block(rows, cols, table, cfg)
        ba_g, ba_w, _ = pmi_block(cols, rows, table, cfg)
        np.testing.assert_array_equal(ab_g, ba_g.T)
        np.testing.assert_array_equal(ab_w, ba_w.T)

    def test_independence_null(self):
        # counts proportional to the product of unigram weights give zero PMI
        k = [4, 3, 2, 1]
        total = sum(k)
        words = ["a", "b", "c", "d"]
        vocab = Vocabulary(words, sorted(k, reverse=True), total)
        rows = {
            i: {j: k[i] * k[j] for j in range(4)}
            for i in range(4)
        }
        table = CooccurrenceTable.from_rows(1, vocab, rows)
        pmi, _, _ = pmi_block(range(4), range(4), table, PmiConfig(lam=0.0))
        assert np.max(np.abs(pmi)) < 1e-10

    def test_empty_table_propagates_error(self):
        vocab, table = make_table(["a"], 2)
        with pytest.raises(ValueError):
            pmi_block(range(1), range(1), table, PmiConfig())


class TestPmiRow:
    def test_row_matches_block(self):
        rng = np.random.default_rng(5)
        words = [chr(ord("a") + k) * 2 for k in range(9)]
        tokens = [words[int(k)] for k in rng.integers(0, 9, 800)]
        vocab, table = make_table(tokens, 2)
        cfg = PmiConfig(lam=0.1)
        core = range(0, 5)
        pmi, weights, normalizer = pmi_block(core, core, table, cfg)
        cols = np.arange(5)
        rows_of = PmiRows(cols, table, cfg, normalizer)
        for i in core:
            g, w = rows_of([i])
            np.testing.assert_array_equal(g[0], pmi[i])
            np.testing.assert_array_equal(w[0], weights[i])
        # one batch of rows, in any order and with repeats, gives the same rows
        order = [3, 0, 4, 3, 1, 2]
        g, w = rows_of(order)
        np.testing.assert_array_equal(g, pmi[order])
        np.testing.assert_array_equal(w, weights[order])

    def test_arbitrary_column_sets(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a"], 2)
        cfg = PmiConfig(lam=0.0)
        cols = np.array([vocab.index["c"], vocab.index["a"]])
        g, w = PmiRows(cols, table, cfg)([vocab.index["b"]])
        assert g.shape == (1, 2) and w.shape == (1, 2)
        full, _, _ = pmi_block(range(3), range(3), table, cfg)
        np.testing.assert_allclose(g[0], full[vocab.index["b"], cols])


class TestWeightNormalizer:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("alpha,cap", [(0.5, None), (0.75, None), (1.3, 0.002)])
    def test_equals_dense_block_maximum_exactly(self, lam, alpha, cap):
        rng = np.random.default_rng(12)
        words = [chr(ord("a") + k // 26) + chr(ord("a") + k % 26) for k in range(40)]
        tokens = [words[int(k)] for k in rng.zipf(1.5, 3000) % 40]
        vocab, table = make_table(tokens, 3)
        cfg = PmiConfig(lam=lam, alpha=alpha, cap=cap)
        for size in (1, 5, 17, len(vocab)):
            core = range(0, size)
            _, _, normalizer = pmi_block(core, core, table, cfg)
            assert PmiRows(core, table, cfg, normalizer=None).normalizer == normalizer

    def test_unobserved_top_pair_sets_the_scale(self):
        # the most frequent word never pairs with itself, so with full
        # backoff the block maximum is the unobserved lam * P(0)^2 cell
        vocab = Vocabulary(["a", "b", "c"], [5, 3, 1], 9)
        table = CooccurrenceTable.from_rows(1, vocab, {0: {1: 1, 2: 1}})
        probs = unigram_probs(vocab)
        cfg = PmiConfig(lam=1.0, alpha=1.0)
        _, _, normalizer = pmi_block(range(3), range(3), table, cfg)
        got = PmiRows(range(3), table, cfg, normalizer=None).normalizer
        assert got == normalizer == float(probs[0] * probs[0])

    def test_columns_beyond_one_batch_in_any_order(self):
        vocab, table = zipf_table(700, 40_000, 2, seed=23)
        core = range(0, 600)
        assert len(vocab) >= len(core) > 2 * BATCH_WORDS
        cfg = PmiConfig()
        _, _, normalizer = pmi_block(core, core, table, cfg)
        cols = np.random.default_rng(0).permutation(len(core))
        assert PmiRows(cols, table, cfg, normalizer=None).normalizer == normalizer

    def test_scale_adds_no_memory_peak(self):
        # few frequent columns with long rows: the batches run after the
        # reverse index is built, whose temporaries must be gone by then
        vocab, table = zipf_table(3000, 100_000, 5, seed=24)

        def peak(**kwargs):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                PmiRows(range(40), table, PmiConfig(), **kwargs)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(normalizer=None) <= 1.05 * peak()


class TestInPlaceBlock:
    """The block builders work in place with the roundings of the plain formulas."""

    @pytest.mark.parametrize(
        "lam,alpha,cap",
        [(0.0, 0.5, None), (0.1, 0.5, None), (0.1, 0.75, None), (0.1, 0.5, 2e-4), (0.0, 0.75, 2e-4)],
    )
    def test_bit_identical_to_out_of_place_oracle(self, lam, alpha, cap):
        vocab, table = zipf_table(60, 4000, 3, seed=21)
        cfg = PmiConfig(lam=lam, alpha=alpha, cap=cap)
        core = range(0, 40)
        pmi, weights, normalizer = pmi_block(core, core, table, cfg)
        g, w = pmi_rows_oracle(list(core), list(core), table, cfg)
        assert normalizer == w.max()
        assert pmi.tobytes() == g.tobytes()
        assert weights.tobytes() == (w / normalizer).tobytes()
        if lam == 0.0:
            assert np.count_nonzero(w == 0.0) > 0  # unseen pairs
        if cap is not None:
            uncapped = pmi_rows_oracle(list(core), list(core), table, PmiConfig(lam=lam, alpha=alpha))[1]
            assert np.any(uncapped != w)  # the cap binds
        rows, cols = [45, 3, 59, 45, 0], [7, 50, 2, 33]
        g, w = pmi_rows_oracle(rows, cols, table, cfg, normalizer)
        got_g, got_w = PmiRows(cols, table, cfg, normalizer)(rows)
        assert got_g.tobytes() == g.tobytes()
        assert got_w.tobytes() == w.tobytes()

    def test_memory_budget(self):
        # beyond the table, the block holds its two outputs and one
        # temporary of the smoothing step
        vocab, table = zipf_table(400, 40_000, 2, seed=22)
        n = len(vocab)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pmi_block(range(n), range(n), table, PmiConfig())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) <= 3.5
