import math

import numpy as np
import pytest

from pmivec.corpus import CooccurrenceTable, Vocabulary, count_bigrams, count_unigrams
from pmivec.statistics import (
    PmiRows,
    SmoothingConfig,
    UnigramDistribution,
    WeightConfig,
    pmi_block,
    unigram_distribution,
    weight_normalizer,
    weight_transform,
)


def smoothed_bigram_prob(i, j, table, uni, cfg):
    """Scalar oracle: interpolated probability of the symmetrized pair (i, j)."""
    if table.total_pairs == 0:
        raise ValueError("table holds no pairs")
    emp = (table.pair_count(i, j) + table.pair_count(j, i)) / (2.0 * table.total_pairs)
    return (1.0 - cfg.lam) * emp + cfg.lam * float(uni.probs[i] * uni.probs[j])


def make_table(tokens, window, min_count=1):
    vocab = count_unigrams(iter(tokens), min_count=min_count)
    return vocab, count_bigrams(iter(tokens), vocab, window)


class TestConfigs:
    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_smoothing_bounds(self, lam):
        with pytest.raises(ValueError):
            SmoothingConfig(lam=lam)

    def test_weight_config_validation(self):
        with pytest.raises(ValueError):
            WeightConfig(alpha=0.0)
        with pytest.raises(ValueError):
            WeightConfig(cap=-1.0)


class TestUnigramDistribution:
    def test_direct_ratio(self):
        vocab = Vocabulary(["a", "b"], [3, 1], 4)
        np.testing.assert_allclose(unigram_distribution(vocab).probs, [0.75, 0.25])

    def test_single_word(self):
        vocab = Vocabulary(["a"], [5], 5)
        np.testing.assert_allclose(unigram_distribution(vocab).probs, [1.0])

    def test_symmetry(self):
        vocab = Vocabulary(["a", "b", "c", "d"], [2, 2, 2, 2], 8)
        np.testing.assert_allclose(unigram_distribution(vocab).probs, [0.25] * 4)

    def test_empty_vocab_rejected(self):
        vocab = count_unigrams(iter(["a"]), min_count=9)
        with pytest.raises(ValueError):
            unigram_distribution(vocab)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            UnigramDistribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            UnigramDistribution(np.array([1.0, 0.0]))


class TestSmoothedProbability:
    def test_full_backoff_is_unigram_product(self):
        vocab, table = make_table(["a", "b", "a", "c"], 2)
        uni = unigram_distribution(vocab)
        i, j = vocab.index["a"], vocab.index["c"]
        got = smoothed_bigram_prob(i, j, table, uni, SmoothingConfig(lam=1.0))
        assert got == float(uni.probs[i] * uni.probs[j])

    def test_no_smoothing_unseen_pair_is_zero(self):
        vocab, table = make_table(["a", "b", "c", "b", "a"], 1)
        uni = unigram_distribution(vocab)
        i, j = vocab.index["a"], vocab.index["c"]
        assert smoothed_bigram_prob(i, j, table, uni, SmoothingConfig(lam=0.0)) == 0.0

    def test_hand_arithmetic_on_window_two_example(self):
        # counts (a,b)=1 and (b,a)=1 out of 5 pairs total gives 2/10
        vocab, table = make_table(["a", "b", "a", "c"], 2)
        uni = unigram_distribution(vocab)
        i, j = vocab.index["a"], vocab.index["b"]
        got = smoothed_bigram_prob(i, j, table, uni, SmoothingConfig(lam=0.0))
        assert got == pytest.approx(0.2, abs=1e-15)

    def test_empty_table_rejected(self):
        vocab, table = make_table(["a"], 2)
        uni = unigram_distribution(vocab)
        with pytest.raises(ValueError):
            smoothed_bigram_prob(0, 0, table, uni, SmoothingConfig())


class TestWeightTransform:
    def test_zero_maps_to_zero(self):
        assert weight_transform(0.0, WeightConfig(alpha=0.5)) == 0.0

    def test_identity_at_alpha_one(self):
        assert weight_transform(0.2, WeightConfig(alpha=1.0)) == pytest.approx(0.2)

    def test_square_root(self):
        assert weight_transform(0.25, WeightConfig(alpha=0.5)) == pytest.approx(0.5)

    def test_cap_limits_input(self):
        assert weight_transform(0.9, WeightConfig(alpha=1.0, cap=0.5)) == pytest.approx(0.5)

    def test_monotone_in_p_for_random_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cfg = WeightConfig(
                alpha=float(rng.uniform(0.1, 3.0)),
                cap=float(rng.uniform(0.05, 1.0)) if rng.random() < 0.5 else None,
            )
            p = np.sort(rng.uniform(0.0, 1.0, size=20))
            w = weight_transform(p, cfg)
            assert np.all(np.diff(w) >= 0.0)


class TestPmiBlock:
    def test_full_backoff_gives_exactly_zero_pmi(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a"], 2)
        uni = unigram_distribution(vocab)
        block, _ = pmi_block(
            range(len(vocab)), range(len(vocab)), table, uni,
            SmoothingConfig(lam=1.0), WeightConfig(),
        )
        assert np.all(block.values == 0.0)

    def test_zero_mass_entries_masked(self):
        vocab, table = make_table(["a", "b", "c", "b", "a"], 1)
        uni = unigram_distribution(vocab)
        block, weights = pmi_block(
            range(len(vocab)), range(len(vocab)), table, uni,
            SmoothingConfig(lam=0.0), WeightConfig(),
        )
        i, j = vocab.index["a"], vocab.index["c"]
        assert block.values[i, j] == 0.0
        assert weights.values[i, j] == 0.0

    def test_normalized_weight_peak_is_exactly_one(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a"], 2)
        uni = unigram_distribution(vocab)
        _, weights = pmi_block(
            range(len(vocab)), range(len(vocab)), table, uni,
            SmoothingConfig(), WeightConfig(),
        )
        assert weights.values.max() == 1.0
        assert weights.normalizer > 0.0

    def test_matches_scalar_probabilities(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a", "c"], 3)
        uni = unigram_distribution(vocab)
        scfg = SmoothingConfig(lam=0.25)
        block, _ = pmi_block(
            range(len(vocab)), range(len(vocab)), table, uni, scfg, WeightConfig()
        )
        for i in range(len(vocab)):
            for j in range(len(vocab)):
                p = smoothed_bigram_prob(i, j, table, uni, scfg)
                expected = math.log(p / float(uni.probs[i] * uni.probs[j])) if p > 0 else 0.0
                assert block.values[i, j] == pytest.approx(expected, abs=1e-15)

    def test_two_word_corpus_against_scalar_script(self):
        # alternating a b ... of length 10^4, window 1, no smoothing
        tokens = ["a", "b"] * 5000
        vocab, table = make_table(tokens, 1)
        uni = unigram_distribution(vocab)
        block, _ = pmi_block(
            range(2), range(2), table, uni, SmoothingConfig(lam=0.0), WeightConfig()
        )
        i, j = vocab.index["a"], vocab.index["b"]
        # scalar computation straight from raw counts with plain floats
        c_ab = table.pair_count(i, j)
        c_ba = table.pair_count(j, i)
        p_emp = (c_ab + c_ba) / (2.0 * table.total_pairs)
        expected = math.log(p_emp / (0.5 * 0.5))
        assert abs(block.values[i, j] - expected) < 1e-12

    def test_transpose_symmetry_between_blocks(self):
        rng = np.random.default_rng(3)
        words = [chr(ord("a") + k) * 2 for k in range(8)]
        tokens = [words[int(k)] for k in rng.integers(0, 8, 600)]
        vocab, table = make_table(tokens, 3)
        uni = unigram_distribution(vocab)
        scfg, wcfg = SmoothingConfig(lam=0.2), WeightConfig()
        rows, cols = range(0, 3), range(3, 8)
        ab_g, ab_w = pmi_block(rows, cols, table, uni, scfg, wcfg)
        ba_g, ba_w = pmi_block(cols, rows, table, uni, scfg, wcfg)
        np.testing.assert_array_equal(ab_g.values, ba_g.values.T)
        np.testing.assert_array_equal(ab_w.values, ba_w.values.T)

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
        uni = unigram_distribution(vocab)
        block, _ = pmi_block(
            range(4), range(4), table, uni, SmoothingConfig(lam=0.0), WeightConfig()
        )
        assert np.max(np.abs(block.values)) < 1e-10

    def test_empty_table_propagates_error(self):
        vocab, table = make_table(["a"], 2)
        uni = unigram_distribution(vocab)
        with pytest.raises(ValueError):
            pmi_block(range(1), range(1), table, uni, SmoothingConfig(), WeightConfig())


class TestPmiRow:
    def test_row_matches_block(self):
        rng = np.random.default_rng(5)
        words = [chr(ord("a") + k) * 2 for k in range(9)]
        tokens = [words[int(k)] for k in rng.integers(0, 9, 800)]
        vocab, table = make_table(tokens, 2)
        uni = unigram_distribution(vocab)
        scfg, wcfg = SmoothingConfig(lam=0.1), WeightConfig()
        core = range(0, 5)
        gblk, wblk = pmi_block(core, core, table, uni, scfg, wcfg)
        cols = np.arange(5)
        rows_of = PmiRows(cols, table, uni, scfg, wcfg, normalizer=wblk.normalizer)
        for i in core:
            g, w = rows_of([i])
            np.testing.assert_array_equal(g[0], gblk.values[i])
            np.testing.assert_array_equal(w[0], wblk.values[i])
        # one batch of rows, in any order and with repeats, gives the same rows
        order = [3, 0, 4, 3, 1, 2]
        g, w = rows_of(order)
        np.testing.assert_array_equal(g, gblk.values[order])
        np.testing.assert_array_equal(w, wblk.values[order])

    def test_arbitrary_column_sets(self):
        vocab, table = make_table(["a", "b", "a", "c", "b", "a"], 2)
        uni = unigram_distribution(vocab)
        scfg, wcfg = SmoothingConfig(lam=0.0), WeightConfig()
        cols = np.array([vocab.index["c"], vocab.index["a"]])
        g, w = PmiRows(cols, table, uni, scfg, wcfg)([vocab.index["b"]])
        assert g.shape == (1, 2) and w.shape == (1, 2)
        full, _ = pmi_block(range(3), range(3), table, uni, scfg, wcfg)
        np.testing.assert_allclose(g[0], full.values[vocab.index["b"], cols])


class TestWeightNormalizer:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("alpha,cap", [(0.5, None), (0.75, None), (1.3, 0.002)])
    def test_equals_dense_block_maximum_exactly(self, lam, alpha, cap):
        rng = np.random.default_rng(12)
        words = [chr(ord("a") + k // 26) + chr(ord("a") + k % 26) for k in range(40)]
        tokens = [words[int(k)] for k in rng.zipf(1.5, 3000) % 40]
        vocab, table = make_table(tokens, 3)
        uni = unigram_distribution(vocab)
        scfg, wcfg = SmoothingConfig(lam=lam), WeightConfig(alpha=alpha, cap=cap)
        for size in (1, 5, 17, len(vocab)):
            core = range(0, size)
            _, wblk = pmi_block(core, core, table, uni, scfg, wcfg)
            assert weight_normalizer(core, table, uni, scfg, wcfg) == wblk.normalizer

    def test_unobserved_top_pair_sets_the_scale(self):
        # the most frequent word never pairs with itself, so with full
        # backoff the block maximum is the unobserved lam * P(0)^2 cell
        vocab = Vocabulary(["a", "b", "c"], [5, 3, 1], 9)
        table = CooccurrenceTable.from_rows(1, vocab, {0: {1: 1, 2: 1}})
        uni = unigram_distribution(vocab)
        scfg, wcfg = SmoothingConfig(lam=1.0), WeightConfig(alpha=1.0)
        _, wblk = pmi_block(range(3), range(3), table, uni, scfg, wcfg)
        got = weight_normalizer(range(3), table, uni, scfg, wcfg)
        assert got == wblk.normalizer == float(uni.probs[0] * uni.probs[0])
