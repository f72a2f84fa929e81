import numpy as np
import pytest

from pmivec.embeddings import EmbeddingSet
from pmivec.evaluation import (
    COSMUL_EPSILON,
    AnalogyTestset,
    ChoiceTestset,
    SimilarityTestset,
    average_ranks,
    cosine,
    eval_analogy_3cosmul,
    eval_choice,
    eval_similarity,
    format_report_keyvalues,
    format_report_table,
    load_analogy,
    load_choice,
    load_similarity,
    spearman,
)
from pmivec.ioutil import ParseError


def brute_force_ranks(values):
    """Quadratic tie-averaging rank computation, independent of the library."""
    values = list(values)
    ranks = []
    for x in values:
        below = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        # positions below+1 .. below+equal share the average rank
        ranks.append(below + (equal + 1) / 2.0)
    return np.array(ranks)


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_opposite(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, -v) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.ones(2))


class TestSpearman:
    def test_identical_order(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_tie_case_against_brute_force(self):
        xs = np.array([1.0, 2.0, 2.0, 4.0])
        ys = np.array([1.0, 3.0, 2.0, 4.0])
        np.testing.assert_allclose(average_ranks(xs), brute_force_ranks(xs), atol=1e-15)
        rx = brute_force_ranks(xs)
        ry = brute_force_ranks(ys)
        rx = rx - rx.mean()
        ry = ry - ry.mean()
        expected = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_random_tie_cases_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            xs = rng.integers(0, 5, size=n).astype(float)
            ys = rng.integers(0, 5, size=n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            rx = brute_force_ranks(xs) - (n + 1) / 2.0
            ry = brute_force_ranks(ys) - (n + 1) / 2.0
            expected = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        base = spearman(xs, ys)
        assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
        assert spearman(xs, 3.0 * ys + 7.0) == pytest.approx(base, abs=1e-12)


def simple_embedding(vector_by_word):
    words = list(vector_by_word)
    return EmbeddingSet(words, np.array([vector_by_word[w] for w in words], dtype=float))


class TestEvalSimilarity:
    def test_perfect_monotone_alignment(self):
        emb = simple_embedding({
            "a": [1.0, 0.0],
            "b": [1.0, 0.1],
            "c": [1.0, 0.5],
            "d": [0.0, 1.0],
        })
        ts = SimilarityTestset((("a", "b", 9.0), ("a", "c", 5.0), ("a", "d", 1.0)))
        report = eval_similarity(emb, ts)
        assert report.metric == pytest.approx(1.0)
        assert report.items_covered == 3 and report.coverage == 1.0

    def test_all_pairs_oov_is_an_error(self):
        emb = simple_embedding({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        ts = SimilarityTestset((("x", "y", 1.0), ("y", "z", 2.0)))
        with pytest.raises(ValueError, match="0 of 2"):
            eval_similarity(emb, ts)

    def test_three_pair_hand_computation(self):
        emb = simple_embedding({
            "a": [1.0, 0.0],
            "b": [0.6, 0.8],
            "c": [0.0, 1.0],
            "d": [-1.0, 0.0],
        })
        # cosines to a: b = 0.6, c = 0.0, d = -1.0
        ts = SimilarityTestset((("a", "b", 2.0), ("a", "c", 3.0), ("a", "d", 1.0)))
        # human ranks: (2,3,1); cosine ranks: (3,2,1) -> rho = 0.5 by hand
        report = eval_similarity(emb, ts)
        assert report.metric == pytest.approx(0.5, abs=1e-12)

    def test_oov_pairs_lower_coverage(self):
        emb = simple_embedding({"a": [1.0, 0.0], "b": [0.5, 0.5], "c": [0.0, 1.0]})
        ts = SimilarityTestset((("a", "b", 2.0), ("a", "c", 1.0), ("a", "zz", 5.0)))
        report = eval_similarity(emb, ts)
        assert report.items_covered == 2
        assert report.coverage == pytest.approx(2 / 3)


def cosmul_score_by_hand(emb, x, a, a_star, b):
    def shifted(u, v):
        return (cosine(emb.vector(u), emb.vector(v)) + 1.0) / 2.0

    return shifted(x, b) * shifted(x, a_star) / (shifted(x, a) + COSMUL_EPSILON)


class TestEvalAnalogy:
    @pytest.fixture
    def emb(self):
        rng = np.random.default_rng(2)
        words = ["aa", "bb", "cc", "dd", "ee"]
        return EmbeddingSet(words, rng.normal(size=(5, 4)))

    def test_prediction_matches_direct_formula(self, emb):
        a, a_star, b = "aa", "bb", "cc"
        candidates = [w for w in emb.words if w not in (a, a_star, b)]
        best = max(candidates, key=lambda x: cosmul_score_by_hand(emb, x, a, a_star, b))
        ts = AnalogyTestset(((a, a_star, b, best),))
        report = eval_analogy_3cosmul(emb, ts)
        assert report.metric == 1.0 and report.items_covered == 1

    def test_wrong_target_scores_zero(self, emb):
        a, a_star, b = "aa", "bb", "cc"
        candidates = [w for w in emb.words if w not in (a, a_star, b)]
        worst = min(candidates, key=lambda x: cosmul_score_by_hand(emb, x, a, a_star, b))
        ts = AnalogyTestset(((a, a_star, b, worst),))
        report = eval_analogy_3cosmul(emb, ts)
        assert report.metric == 0.0

    def test_oov_item_skipped(self, emb):
        ts = AnalogyTestset((("aa", "bb", "cc", "zz"),))
        report = eval_analogy_3cosmul(emb, ts)
        assert report.items_covered == 0 and report.coverage == 0.0

    def test_duplicated_item_leaves_accuracy_unchanged(self, emb):
        a, a_star, b = "aa", "bb", "cc"
        candidates = [w for w in emb.words if w not in (a, a_star, b)]
        best = max(candidates, key=lambda x: cosmul_score_by_hand(emb, x, a, a_star, b))
        once = eval_analogy_3cosmul(emb, AnalogyTestset(((a, a_star, b, best),)))
        twice = eval_analogy_3cosmul(
            emb, AnalogyTestset(((a, a_star, b, best), (a, a_star, b, best)))
        )
        assert once.metric == twice.metric == 1.0

    def test_query_words_never_predicted(self):
        # make a query word the runaway cosine winner; it must be excluded
        emb = simple_embedding({
            "aa": [1.0, 0.0, 0.0],
            "bb": [1.0, 0.01, 0.0],
            "cc": [1.0, 0.0, 0.01],
            "dd": [0.0, 1.0, 0.0],
            "ee": [0.0, 0.0, 1.0],
        })
        ts = AnalogyTestset((("aa", "bb", "cc", "dd"),))
        report = eval_analogy_3cosmul(emb, ts)
        assert report.items_covered == 1
        # the three query words all point nearly at each other, but the
        # prediction must come from {dd, ee}
        best = max(("dd", "ee"), key=lambda x: cosmul_score_by_hand(emb, x, "aa", "bb", "cc"))
        assert report.metric == (1.0 if best == "dd" else 0.0)

    def test_small_vocabulary_rejected(self):
        emb = simple_embedding({"a": [1.0], "b": [2.0], "c": [3.0]})
        with pytest.raises(ValueError):
            eval_analogy_3cosmul(emb, AnalogyTestset((("a", "b", "c", "a"),)))


class TestEvalChoice:
    def test_identical_candidate_chosen(self):
        emb = simple_embedding({
            "probe": [1.0, 2.0],
            "same": [2.0, 4.0],
            "off": [1.0, -2.0],
            "far": [-1.0, -2.0],
            "odd": [0.0, 1.0],
        })
        ts = ChoiceTestset((("probe", ("off", "same", "far", "odd"), 1),))
        report = eval_choice(emb, ts)
        assert report.metric == 1.0

    def test_probe_oov_skipped(self):
        emb = simple_embedding({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        ts = ChoiceTestset((("zz", ("a", "b", "a", "b"), 0),))
        report = eval_choice(emb, ts)
        assert report.items_covered == 0

    def test_two_items_one_correct(self):
        emb = simple_embedding({
            "p": [1.0, 0.0],
            "x": [1.0, 0.05],
            "y": [0.0, 1.0],
            "z": [-1.0, 0.0],
            "q": [-0.5, -0.5],
        })
        ts = ChoiceTestset((
            ("p", ("x", "y", "z", "q"), 0),   # correct: x is closest to p
            ("p", ("x", "y", "z", "q"), 2),   # wrong on purpose
        ))
        report = eval_choice(emb, ts)
        assert report.metric == pytest.approx(0.5)

    def test_oov_candidate_never_wins(self):
        emb = simple_embedding({"p": [1.0, 0.0], "x": [0.9, 0.1]})
        ts = ChoiceTestset((("p", ("zz", "x", "zz2", "zz3"), 1),))
        report = eval_choice(emb, ts)
        assert report.metric == 1.0


class TestScaleInvariance:
    def test_all_metrics_survive_positive_scaling(self):
        rng = np.random.default_rng(3)
        words = [f"w{chr(ord('a') + k)}" for k in range(12)]
        vectors = rng.normal(size=(12, 6))
        emb = EmbeddingSet(words, vectors)
        scaled = EmbeddingSet(words, 7.3 * vectors)
        sim = SimilarityTestset(tuple(
            (words[int(a)], words[int(b)], float(rng.normal()))
            for a, b in rng.integers(0, 12, size=(8, 2))
            if a != b
        ))
        ana = AnalogyTestset(tuple(
            tuple(words[int(i)] for i in rng.choice(12, size=4, replace=False))
            for _ in range(6)
        ))
        cho = ChoiceTestset(tuple(
            (words[int(p)], tuple(words[int(i)] for i in rng.choice(12, size=4, replace=False)), int(rng.integers(0, 4)))
            for p in rng.integers(0, 12, size=6)
        ))
        assert eval_similarity(emb, sim).metric == pytest.approx(
            eval_similarity(scaled, sim).metric, abs=1e-12)
        assert eval_analogy_3cosmul(emb, ana).metric == eval_analogy_3cosmul(scaled, ana).metric
        assert eval_choice(emb, cho).metric == eval_choice(scaled, cho).metric


class TestLoaders:
    def test_similarity_format(self, tmp_path):
        path = tmp_path / "t.sim.tsv"
        path.write_text("Apple\tBanana\t7.5\ncar\ttruck\t8.1\n")
        ts = load_similarity(path)
        assert ts.items == (("apple", "banana", 7.5), ("car", "truck", 8.1))

    def test_similarity_bad_score(self, tmp_path):
        path = tmp_path / "t.sim.tsv"
        path.write_text("a\tb\thigh\nc\td\t2\n")
        with pytest.raises(ParseError, match=r"t.sim.tsv:1"):
            load_similarity(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_similarity_non_finite_score(self, tmp_path, score):
        path = tmp_path / "t.sim.tsv"
        path.write_text(f"a\tb\t1.0\nc\td\t2.0\ne\tf\t{score}\ng\th\t4.0\n")
        with pytest.raises(ParseError, match=r"t.sim.tsv:3: .* is not finite"):
            load_similarity(path)

    def test_similarity_too_few_items(self, tmp_path):
        path = tmp_path / "t.sim.tsv"
        path.write_text("a\tb\t1.0\n")
        with pytest.raises(ParseError, match="at least 2"):
            load_similarity(path)

    def test_analogy_format(self, tmp_path):
        path = tmp_path / "t.ana.txt"
        path.write_text("man King woman queen\n\nparis france rome italy\n")
        ts = load_analogy(path)
        assert ts.items[0] == ("man", "king", "woman", "queen")
        assert len(ts.items) == 2

    def test_analogy_wrong_arity(self, tmp_path):
        path = tmp_path / "t.ana.txt"
        path.write_text("one two three\n")
        with pytest.raises(ParseError, match="four words"):
            load_analogy(path)

    def test_choice_format(self, tmp_path):
        path = tmp_path / "t.mc.txt"
        path.write_text("probe | aa bb cc dd | 2\n")
        ts = load_choice(path)
        assert ts.items == (("probe", ("aa", "bb", "cc", "dd"), 2),)

    def test_choice_answer_out_of_range(self, tmp_path):
        path = tmp_path / "t.mc.txt"
        path.write_text("probe | aa bb cc dd | 4\n")
        with pytest.raises(ParseError, match="out of range"):
            load_choice(path)

    def test_choice_wrong_candidate_count(self, tmp_path):
        path = tmp_path / "t.mc.txt"
        path.write_text("probe | aa bb cc | 0\n")
        with pytest.raises(ParseError, match="4 candidates"):
            load_choice(path)


class TestReportFormatting:
    def test_table_and_keyvalues(self):
        from pmivec.evaluation import EvalReport

        reports = [
            EvalReport("mini", "similarity", 0.5, 10, 8),
            EvalReport("quads", "analogy", 0.25, 4, 4),
        ]
        table = format_report_table(reports)
        assert "mini" in table and "0.5000" in table and "8/10" in table
        kv = format_report_keyvalues(reports)
        assert "mini.spearman=0.500000" in kv
        assert "quads.accuracy=0.250000" in kv
        assert "mini.coverage=0.800000" in kv
