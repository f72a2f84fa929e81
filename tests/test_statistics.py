import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmivec.corpus import CooccurrenceTable, Vocabulary, count_bigrams, count_unigrams
from pmivec.statistics import PmiConfig, PmiRows, pmi_block, unigram_probs


def pair_counts(table):
    """``{(leading index, context index): count}`` of the table's pairs."""
    return {(i, j): count for i, j, count in table.pairs()}


def smoothed_bigram_prob(i, j, table, probs, cfg):
    """Scalar oracle: interpolated probability of the symmetrized pair (i, j)."""
    if table.total_pairs == 0:
        raise ValueError("table holds no pairs")
    counts = pair_counts(table)
    emp = (counts.get((i, j), 0) + counts.get((j, i), 0)) / (2.0 * table.total_pairs)
    return (1.0 - cfg.lam) * emp + cfg.lam * float(probs[i] * probs[j])


def make_table(tokens, window, min_count=1):
    vocab = count_unigrams(iter(tokens), min_count=min_count)
    return vocab, count_bigrams(iter(tokens), vocab, window)


def smoothed_oracle(rows, cols, table, cfg):
    """Out-of-place smoothed pair probabilities and unigram products from a
    dense count matrix."""
    n = len(table.vocab)
    dense = np.zeros((n, n))
    for i, j, count in table.pairs():
        dense[i, j] = count
    counts = (dense + dense.T)[np.ix_(rows, cols)]
    probs = unigram_probs(table.vocab)
    indep = np.outer(probs[rows], probs[cols])
    counts /= 2.0 * table.total_pairs
    return (1.0 - cfg.lam) * counts + cfg.lam * indep, indep


def pmi_rows_oracle(rows, cols, table, cfg, normalizer=1.0):
    """Out-of-place PMI and weight rows from a dense count matrix."""
    p, indep = smoothed_oracle(rows, cols, table, cfg)
    mask = p > 0.0
    pmi = np.zeros_like(p)
    pmi[mask] = np.log(p[mask] / indep[mask])
    weights = np.minimum(p, np.inf if cfg.cap is None else cfg.cap) ** cfg.alpha
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

    @pytest.mark.parametrize("field", ["lam", "alpha", "cap"])
    @pytest.mark.parametrize("value", [True, "0.1", math.nan, math.inf, -10 ** 400],
                             ids=["bool", "text", "nan", "inf", "huge-negative-int"])
    def test_refuses_what_is_not_a_finite_number(self, field, value):
        with pytest.raises(ValueError, match=field):
            PmiConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1)],
                             ids=["float64", "float32", "int64"])
    def test_accepts_numpy_scalars(self, value):
        assert PmiConfig(lam=value, alpha=value, cap=value).alpha == value


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
            PmiRows(range(0), table, PmiConfig())


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
    """The map from pair probability to fit weight, read from the weight rows
    of :class:`PmiRows` under normalizer 1.0."""

    @staticmethod
    def weights(cfg):
        # symmetrized counts (a, a) = 2, (a, b) = 1, (b, b) = 0 of 2 pairs:
        # under lam = 0, p(a, a) = 0.5, p(a, b) = 0.25 and p(b, b) = 0
        vocab = Vocabulary(["a", "b"], [3, 1], 4)
        table = CooccurrenceTable.from_rows(1, vocab, {0: {0: 1, 1: 1}})
        return PmiRows(range(2), table, cfg, normalizer=1.0)(range(2))[1]

    def test_zero_maps_to_zero(self):
        assert self.weights(PmiConfig(lam=0.0, alpha=0.5))[1, 1] == 0.0

    def test_identity_at_alpha_one(self):
        np.testing.assert_array_equal(self.weights(PmiConfig(lam=0.0, alpha=1.0)),
                                      [[0.5, 0.25], [0.25, 0.0]])

    def test_square_root(self):
        w = self.weights(PmiConfig(lam=0.0, alpha=0.5))
        assert w[0, 1] == 0.5
        assert w[0, 0] == pytest.approx(math.sqrt(0.5))

    def test_cap_limits_input(self):
        np.testing.assert_array_equal(self.weights(PmiConfig(lam=0.0, alpha=1.0, cap=0.4)),
                                      [[0.4, 0.25], [0.25, 0.0]])

    def test_monotone_in_p_for_random_configs(self):
        rng = np.random.default_rng(11)
        vocab, table = zipf_table(30, 2000, 2, seed=11)
        words = range(len(vocab))
        for _ in range(50):
            lam = float(rng.uniform(0.0, 1.0))
            p = smoothed_oracle(words, words, table, PmiConfig(lam=lam))[0].ravel()
            cfg = PmiConfig(
                lam=lam,
                alpha=float(rng.uniform(0.1, 3.0)),
                cap=float(rng.uniform(0.2, 1.0) * p.max()) if rng.random() < 0.5 else None,
            )
            w = PmiRows(words, table, cfg, normalizer=1.0)(words)[1].ravel()
            assert np.all(np.diff(w[np.argsort(p, kind="stable")]) >= 0.0)


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
        counts = pair_counts(table)
        c_ab, c_ba = counts[i, j], counts[j, i]
        p_emp = (c_ab + c_ba) / (2.0 * table.total_pairs)
        expected = math.log(p_emp / (0.5 * 0.5))
        assert abs(pmi[i, j] - expected) < 1e-12

    def test_transpose_symmetry_between_blocks(self):
        # words 0-2 against words 3-7 read the first rows' forward counts,
        # words 3-7 against words 0-2 read the reverse index
        rng = np.random.default_rng(3)
        words = [chr(ord("a") + k) * 2 for k in range(8)]
        tokens = [words[int(k)] for k in rng.integers(0, 8, 600)]
        vocab, table = make_table(tokens, 3)
        cfg = PmiConfig(lam=0.2)
        ab_g, ab_w = PmiRows(range(8), table, cfg)(range(0, 3))
        ba_g, ba_w = PmiRows(range(3), table, cfg)(range(3, 8))
        np.testing.assert_array_equal(ab_g[:, 3:], ba_g.T)
        np.testing.assert_array_equal(ab_w[:, 3:], ba_w.T)

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
            g, w = rows_of(range(i, i + 1))
            np.testing.assert_array_equal(g[0], pmi[i])
            np.testing.assert_array_equal(w[0], weights[i])
        # one range of rows gives the same rows
        g, w = rows_of(range(1, 4))
        np.testing.assert_array_equal(g, pmi[1:4])
        np.testing.assert_array_equal(w, weights[1:4])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rows_match_dense_symmetrized_counts(self, data):
        # random sparse tables, with empty rows and rows without a column
        # word among their contexts; c runs from 1 to the whole vocabulary
        n = data.draw(st.integers(1, 8), label="n")
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.dictionaries(pair, st.integers(1, 9), min_size=1, max_size=3 * n),
                          label="pairs")
        rows = {}
        for (i, j), count in pairs.items():
            rows.setdefault(i, {})[j] = count
        vocab = Vocabulary([f"w{k}" for k in range(n)], [1] * n, n)
        table = CooccurrenceTable.from_rows(2, vocab, rows)
        c = data.draw(st.integers(1, n), label="c")
        start = data.draw(st.integers(0, n), label="start")
        span = range(start, data.draw(st.integers(start, n), label="stop"))
        cfg = PmiConfig(lam=data.draw(st.sampled_from([0.0, 0.1]), label="lam"))
        dense = np.zeros((n, n))
        for i, j, count in table.pairs():
            dense[i, j] = count
        rows_of = PmiRows(range(c), table, cfg)
        np.testing.assert_array_equal(rows_of._gather(span), (dense + dense.T)[span.start:span.stop, :c])
        g, w = pmi_rows_oracle(list(span), list(range(c)), table, cfg)
        got_g, got_w = rows_of(span)
        assert got_g.tobytes() == g.tobytes() and got_w.tobytes() == w.tobytes()

    def test_rows_outlive_the_table(self):
        _, table = zipf_table(60, 4000, 3, seed=24)
        rows_of = PmiRows(range(20), table, PmiConfig(lam=0.1))
        expected = rows_of(range(10, 60))
        gone = weakref.ref(table)
        del table
        gc.collect()
        assert gone() is None  # the rows hold copies, not the table or views of it
        got = rows_of(range(10, 60))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))

    WORDS = "a b c a b d a c b a d c b a".split()  # a 4-word vocabulary

    COLUMNS = r"columns must be the first c of the 4 vocabulary words"
    SCALE = r"normalizer .* \(0, 1\]"

    # columns other than the first c words, and a normalizer outside (0, 1],
    # where the largest weight lies, are refused
    @pytest.mark.parametrize("cols,normalizer,match", [
        ([-1, 1], 1.0, COLUMNS), ([0, 9], 1.0, COLUMNS), ([0, 1.7], 1.0, COLUMNS),
        (range(1, 3), 1.0, COLUMNS), (np.array([1, 0]), 1.0, COLUMNS), ([0, 0, 1], 1.0, COLUMNS),
        (range(0, 4, 2), 1.0, COLUMNS), (range(5), 1.0, COLUMNS), (np.array([False]), 1.0, COLUMNS),
        (range(2), None, SCALE), (range(2), 0.0, SCALE), (range(2), math.nan, SCALE),
        (range(2), 1.5, SCALE),
    ], ids=["negative", "beyond", "fraction", "not-leading", "out-of-order", "repeated", "step-2",
            "wider-than-vocabulary", "bool", "normalizer-none", "normalizer-zero",
            "normalizer-nan", "normalizer-above-one"])
    def test_column_outside_vocabulary_refused(self, cols, normalizer, match):
        _, table = make_table(self.WORDS, 2)
        with pytest.raises(ValueError, match=match):
            PmiRows(cols, table, PmiConfig(), normalizer)

    # rows are a step-1 range inside the vocabulary
    @pytest.mark.parametrize("rows", [
        range(-1, 1), range(2, 5), [[1, 2]], [2.9], [True],
        [2], np.arange(2, 4), range(0, 4, 2), range(3, 1),
    ], ids=["negative", "beyond", "2-d", "fraction", "bool", "list", "array", "step-2", "reversed"])
    def test_row_outside_vocabulary_refused(self, rows):
        _, table = make_table(self.WORDS, 2)
        with pytest.raises(ValueError, match=r"rows must be a step-1 range inside the 4 vocabulary words"):
            PmiRows(range(2), table, PmiConfig())(rows)


class TestWeightNormalizer:
    def test_unobserved_top_pair_sets_the_scale(self):
        # the most frequent word never pairs with itself, so with full
        # backoff the block maximum is the unobserved lam * P(0)^2 cell
        vocab = Vocabulary(["a", "b", "c"], [5, 3, 1], 9)
        table = CooccurrenceTable.from_rows(1, vocab, {0: {1: 1, 2: 1}})
        probs = unigram_probs(vocab)
        cfg = PmiConfig(lam=1.0, alpha=1.0)
        _, _, normalizer = pmi_block(range(3), range(3), table, cfg)
        assert normalizer == float(probs[0] * probs[0])


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
        rows, cols = range(20, 60), range(33)  # rows within the columns and beyond them
        g, w = pmi_rows_oracle(list(rows), list(cols), table, cfg, normalizer)
        got_g, got_w = PmiRows(cols, table, cfg, normalizer)(rows)
        assert got_g.tobytes() == g.tobytes()
        assert got_w.tobytes() == w.tobytes()

    def test_memory_budget(self):
        # beyond the table, the block holds its two outputs; the smoothing
        # step adds row chunks of at most 65,536 entries
        vocab, table = zipf_table(400, 40_000, 2, seed=22)
        n = len(vocab)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pmi_block(range(n), range(n), table, PmiConfig())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) <= 2.6

    def test_reverse_index_memory(self):
        # the rows keep 8 bytes per entry with a column word as context, 8
        # per entry of the column words' rows, and two row pointers per
        # word; the slice's one-byte mask, the reverse index's argsort and
        # its entries' row positions come on top while they are built
        rng = np.random.default_rng(23)
        n, c, per_row = 1000, 200, 400
        vocab = Vocabulary([f"w{k:04d}" for k in range(n)], list(range(n + 1, 1, -1)), n * (n + 3) // 2)
        contexts = np.sort(rng.random((n, n)).argsort(axis=1)[:, :per_row], axis=1)
        table = CooccurrenceTable(2, vocab, np.arange(n + 1) * per_row, contexts.ravel(),
                                  rng.integers(1, 50, n * per_row))
        entries = int(table.indptr[c])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows = PmiRows(range(c), table, PmiConfig())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / entries <= 32
        kept = sum(a.nbytes for a in (rows.fwd_indptr, rows.fwd_ctx, rows.fwd_counts,
                                      rows.rev_indptr, rows.rev_pos, rows.rev_counts))
        bound = 8 * np.count_nonzero(table.indices < c) + 8 * entries + 16 * (n + 1)
        assert kept <= bound
        assert peak - bound <= 2 * table.indices.size
