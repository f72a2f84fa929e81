import io
import os
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pmivec
from pmivec.corpus import (
    DOC_BREAK,
    CooccurrenceTable,
    Vocabulary,
    companion_path,
    count_bigrams,
    count_unigrams,
    load_bigrams,
    load_unigrams,
    save_bigrams,
    save_unigrams,
    tokenize,
)
from pmivec.ioutil import ParseError
from pmivec.settings import MAX_WINDOW


def pairs_of(table):
    """Flatten a table to a Counter of (leading word, context word) pairs."""
    words = table.vocab.words
    return Counter(
        {(words[i], words[j]): c for i, j, c in table.pairs()}
    )


def brute_force_pairs(tokens, vocab, window):
    """Independent double loop over all (t, t + k) positions, k <= window."""
    pairs = Counter()
    for t in range(len(tokens)):
        for k in range(1, window + 1):
            if t + k < len(tokens):
                a, b = tokens[t], tokens[t + k]
                if a in vocab and b in vocab:
                    pairs[(vocab.index[a], vocab.index[b])] += 1
    return pairs


class TestTokenize:
    def test_lowercase_and_punctuation_strip(self):
        assert list(tokenize("The cat, the CAT!")) == ["the", "cat", "the", "cat"]

    def test_empty_input(self):
        assert list(tokenize("")) == []

    def test_string_is_not_copied(self):
        # a string of about 10 MB is split lazily: draining it raises peak RSS by under 10 MB
        pytest.importorskip("resource")
        script = (
            "import resource, sys\n"
            "from pmivec.corpus import tokenize\n"
            "text = 'the cat sat on the mat\\r\\n\\n' * 400_000\n"
            "unit = 1 if sys.platform == 'darwin' else 1024\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit\n"
            "tokens = sum(1 for _ in tokenize(text))\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit\n"
            "print(len(text), tokens, after - before)\n"
        )
        src = str(Path(pmivec.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        chars, tokens, grown = map(int, done.stdout.split())
        assert chars >= 10_000_000 and tokens == 7 * 400_000
        assert grown < 10 * 2**20, f"peak RSS rose by {grown / 2**20:.1f} MB"

    def test_letters_only_rule_drops_mixed_tokens(self):
        assert list(tokenize("a b2c d")) == ["a", "d"]
        # the Kelvin sign lowercases to ASCII "k"; dotted I, sharp s, sigma
        # and accents stay non-ASCII and drop their spans; Unicode
        # whitespace separates spans
        text = "\u212aelvin \u0130stanbul stra\u00dfe \u03a3\u039f\u03a3 caf\u00e9 x-ray\u00a0b\u3000c"
        assert list(tokenize(text)) == ["kelvin", "xray", "b", "c"]

    def test_accepts_line_iterables(self):
        fh = io.StringIO("one two\nthree\n")
        assert list(tokenize(fh)) == ["one", "two", "three"]

    def test_blank_line_is_a_document_boundary(self):
        out = list(tokenize("a b\n\nc"))
        assert out == ["a", "b", DOC_BREAK, "c"]

    def test_only_an_empty_line_is_a_boundary(self):
        fh = io.StringIO("a\n \n\t\nb\n\n\nc\n")
        assert list(tokenize(fh)) == ["a", "b", DOC_BREAK, DOC_BREAK, "c"]
        # without newline translation a line holding only "\r\n" is a boundary too
        fh = io.StringIO("a\r\n\r\nb\n", newline="")
        assert list(tokenize(fh)) == ["a", DOC_BREAK, "b"]

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_line_iterable_tokenizes_like_the_joined_string(self, end):
        lines = ["a b", "", "c", "", "", "d e", "", "f"]
        text = end.join(lines) + end
        expected = ["a", "b", DOC_BREAK, "c", DOC_BREAK, DOC_BREAK, "d", "e", DOC_BREAK, "f"]
        assert list(tokenize(text)) == expected
        assert list(tokenize([line + end for line in lines])) == expected
        assert list(tokenize(lines)) == expected

    def test_order_preserved(self):
        assert list(tokenize("z y x")) == ["z", "y", "x"]


class TestCountUnigrams:
    def test_threshold_and_order(self):
        vocab = count_unigrams(iter(["a", "b", "a", "c", "a", "b"]), min_count=2)
        assert vocab.words == ["a", "b"]
        assert vocab.counts == [3, 2]
        assert vocab.total_tokens == 6

    def test_single_token(self):
        vocab = count_unigrams(iter(["a"]), min_count=1)
        assert vocab.words == ["a"] and vocab.counts == [1]

    def test_all_filtered_keeps_total(self):
        vocab = count_unigrams(iter(["a", "b"]), min_count=3)
        assert len(vocab) == 0
        assert vocab.total_tokens == 2

    def test_ties_break_lexicographically(self):
        vocab = count_unigrams(iter(["b", "a", "c", "a", "b", "c"]))
        assert vocab.words == ["a", "b", "c"]

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            count_unigrams(iter(["a"]), min_count=0)

    @pytest.mark.parametrize("value", [1.5, True, "3"], ids=["fraction", "bool", "text"])
    def test_min_count_must_be_an_integer(self, value):
        # 1.5 used to act as 2
        with pytest.raises(ValueError, match="min_count must be an integer"):
            count_unigrams(iter(["a", "a", "b"]), min_count=value)
        assert count_unigrams(iter(["a", "a", "b"]), min_count=np.int64(2)).words == ["a"]

    def test_doc_breaks_not_counted(self):
        vocab = count_unigrams(iter(["a", DOC_BREAK, "a"]))
        assert vocab.counts == [2] and vocab.total_tokens == 2

    def test_indices_are_dense(self):
        vocab = count_unigrams(tokenize("e d c b a a b c d e a"))
        assert sorted(vocab.index.values()) == list(range(len(vocab)))


class TestVocabularyInvariants:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"], [0], 1)

    def test_rejects_increasing_counts(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b"], [1, 2], 3)

    def test_rejects_duplicate_words(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"], [2, 1], 3)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="differ in length"):
            Vocabulary(["a", "b"], [2], 3)

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError, match=r"total_tokens must be an integer in \[0, inf\)"):
            Vocabulary(["a"], [2], -1)

    @pytest.mark.parametrize("counts,total,field", [
        ([2.5, 1], 4, "count"), ([2, True], 3, "count"), ([2, 1.0], 3, "count"),
        ([2, 1], 3.5, "total_tokens"), ([2, 1], True, "total_tokens"), ([2, 1], "3", "total_tokens"),
    ], ids=["fraction-count", "bool-count", "float-count", "fraction-total", "bool-total", "text-total"])
    def test_rejects_counts_that_are_not_integers(self, counts, total, field):
        # such a vocabulary would write a unigram file that load_unigrams refuses
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Vocabulary(["a", "b"], counts, total)

    def test_rejects_total_below_the_counts(self):
        # the total counts the corpus before filtering, so it is at least the kept counts' sum
        with pytest.raises(ValueError, match="total_tokens 2 is below 8, the sum of the counts"):
            Vocabulary(["a", "b"], [5, 3], 2)
        assert Vocabulary(["a", "b"], [5, 3], 8).total_tokens == 8

    def test_accepts_numpy_integer_counts(self):
        vocab = Vocabulary(["a", "b"], [np.int64(2), np.int32(1)], np.int64(3))
        assert vocab.counts == [2, 1] and vocab.total_tokens == 3


class TestCountBigrams:
    def test_window_two_hand_enumeration(self):
        vocab = count_unigrams(iter(["a", "b", "a", "c"]))
        table = count_bigrams(iter(["a", "b", "a", "c"]), vocab, 2)
        assert pairs_of(table) == Counter(
            {("a", "b"): 1, ("a", "a"): 1, ("b", "a"): 1, ("b", "c"): 1, ("a", "c"): 1}
        )
        assert table.total_pairs == 5

    def test_single_token_gives_empty_table(self):
        vocab = count_unigrams(iter(["a"]))
        table = count_bigrams(iter(["a"]), vocab, 4)
        assert list(table.pairs()) == [] and table.total_pairs == 0

    def test_window_one_adjacent_only(self):
        vocab = count_unigrams(iter(["a", "b", "c"]))
        table = count_bigrams(iter(["a", "b", "c"]), vocab, 1)
        assert pairs_of(table) == Counter({("a", "b"): 1, ("b", "c"): 1})

    def test_oov_tokens_occupy_positions(self):
        vocab = count_unigrams(iter(["a", "b"]))
        # 'zz' sits between a and b, so they are 2 apart, outside window 1
        table = count_bigrams(iter(["a", "zz", "b"]), vocab, 1)
        assert table.total_pairs == 0

    def test_doc_break_resets_window(self):
        vocab = count_unigrams(iter(["a", "b"]))
        table = count_bigrams(iter(["a", DOC_BREAK, "b"]), vocab, 3)
        assert table.total_pairs == 0

    def test_empty_vocab_rejected(self):
        vocab = count_unigrams(iter(["a", "b"]), min_count=3)
        with pytest.raises(ValueError):
            count_bigrams(iter(["a", "b"]), vocab, 1)

    # the bigram companion stores the window as a uint64: MAX_WINDOW + 1 is too wide
    @pytest.mark.parametrize("value", [1.5, True, "3", MAX_WINDOW + 1],
                             ids=["fraction", "bool", "text", "beyond-uint64"])
    def test_window_must_be_an_integer(self, value):
        tokens = ["a", "b", "a", "c"]
        vocab = count_unigrams(iter(tokens))
        with pytest.raises(ValueError, match="window must be an integer"):
            count_bigrams(iter(tokens), vocab, value)
        table = count_bigrams(iter(tokens), vocab, np.int64(2))
        with pytest.raises(ValueError, match="window must be an integer"):
            CooccurrenceTable(value, vocab, table.indptr, table.indices, table.counts)
        assert CooccurrenceTable(np.int64(2), vocab, table.indptr, table.indices,
                                 table.counts) == table

    def test_vocabulary_too_wide_for_int32_pair_keys(self):
        # 50,000 words: i * n + j overflows int32 for the last words
        n = 50_000
        words = [f"w{k}" for k in range(n)]
        vocab = Vocabulary(words, [2] * n, 2 * n)
        tokens = ["w49999", "w49998", "w1", DOC_BREAK, "w49998", "w49999"]
        table = count_bigrams(iter(tokens), vocab, 2)
        assert sorted(table.pairs()) == [
            (49998, 1, 1), (49998, 49999, 1), (49999, 1, 1), (49999, 49998, 1),
        ]

    def test_matches_brute_force_on_random_streams(self):
        import numpy as np

        rng = np.random.default_rng(7)
        alphabet = [f"w{chr(ord('a') + k)}" for k in range(10)] + ["oov"]
        for _ in range(15):
            length = int(rng.integers(0, 400))
            window = int(rng.integers(1, 6))
            tokens = [alphabet[int(k)] for k in rng.integers(0, len(alphabet), length)]
            vocab = count_unigrams(iter(t for t in tokens if t != "oov"))
            if len(vocab) == 0:
                continue
            table = count_bigrams(iter(tokens), vocab, window)
            expected = brute_force_pairs(tokens, vocab, window)
            got = Counter({(i, j): c for i, j, c in table.pairs()})
            assert got == expected


class TestUnigramFiles:
    def test_round_trip(self, tmp_path):
        vocab = count_unigrams(tokenize("b a b c a b"))
        path = tmp_path / "uni.txt"
        save_unigrams(vocab, path)
        assert load_unigrams(path) == vocab

    def test_file_layout(self, tmp_path):
        vocab = count_unigrams(iter(["b", "a", "a", "b", "a"]))
        path = tmp_path / "uni.txt"
        save_unigrams(vocab, path)
        assert path.read_text() == "#total 5\na\t3\nb\t2\n"

    def test_negative_count_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#total 5\na\t3\nb\t-1\n")
        with pytest.raises(ParseError, match=r"bad.txt:3"):
            load_unigrams(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#total 5\na\t3\na\t2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_unigrams(path)

    def test_non_numeric_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#total 5\na\tmany\n")
        with pytest.raises(ParseError, match="integer"):
            load_unigrams(path)

    def test_empty_file_with_header_is_empty_vocab(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("#total 0\n")
        vocab = load_unigrams(path)
        assert len(vocab) == 0 and vocab.total_tokens == 0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\t3\n")
        with pytest.raises(ParseError, match=r"bad.txt:1"):
            load_unigrams(path)

    @pytest.mark.parametrize("text,where", [
        ("#total many\na\t3\n", "bad.txt:1: total token count is not an integer"),
        ("#total -1\na\t3\n", "bad.txt:1: total token count is negative"),
        ("#total 5\na\t3\nb\t1\tx\n", "bad.txt:3: expected 'word<TAB>count'"),
        ("#total 5\na\t3\nb 1\n", "bad.txt:3: expected 'word<TAB>count'"),
        ("#total 5\na\t2\nb\t3\n", "bad.txt:3: counts are not sorted non-increasing"),
        ("#total 5\na\t3\n\nb\t-1\n", "bad.txt:4: count -1 is not strictly positive"),
        ("#total 2\na\t5\nb\t3\n", "bad.txt:1: total token count 2 is below 8, the sum"),
    ], ids=["total-text", "total-negative", "three-fields", "one-field", "increasing",
            "after-blank-line", "total-below-counts"])
    def test_parse_errors_name_the_line(self, tmp_path, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=where):
            load_unigrams(path)


class TestBigramFiles:
    @pytest.fixture
    def vocab_and_table(self):
        tokens = ["a", "b", "a", "c"]
        vocab = count_unigrams(iter(tokens))
        return vocab, count_bigrams(iter(tokens), vocab, 2)

    def test_round_trip(self, tmp_path, vocab_and_table):
        vocab, table = vocab_and_table
        path = tmp_path / "bi.txt"
        save_bigrams(table, path)
        assert load_bigrams(path, vocab) == table

    def test_contexts_written_in_descending_count(self, tmp_path):
        tokens = ["a", "b", "a", "b", "a", "c"]
        vocab = count_unigrams(iter(tokens))
        table = count_bigrams(iter(tokens), vocab, 1)
        path = tmp_path / "bi.txt"
        save_bigrams(table, path)
        text = path.read_text()
        assert text.startswith("#window 1\n")
        a_row = text.split("a\t")[1]
        assert a_row.index("b:") < a_row.index("c:")

    def test_negative_count_rejected(self, tmp_path, vocab_and_table):
        vocab, _ = vocab_and_table
        path = tmp_path / "bad.txt"
        path.write_text("#window 2\na\t-1\n\tb:-1\n")
        with pytest.raises(ParseError, match=r"bad.txt:3"):
            load_bigrams(path, vocab)

    def test_row_total_mismatch_rejected(self, tmp_path, vocab_and_table):
        vocab, _ = vocab_and_table
        path = tmp_path / "bad.txt"
        path.write_text("#window 2\na\t5\n\tb:1\n")
        with pytest.raises(ParseError, match="row total"):
            load_bigrams(path, vocab)

    def test_empty_file_with_header_is_empty_table(self, tmp_path, vocab_and_table):
        vocab, _ = vocab_and_table
        path = tmp_path / "empty.txt"
        path.write_text("#window 3\n")
        table = load_bigrams(path, vocab)
        assert list(table.pairs()) == [] and table.window == 3

    def test_count_beyond_int32_rejected(self, tmp_path, vocab_and_table):
        vocab, _ = vocab_and_table
        path = tmp_path / "bad.txt"
        path.write_text("#window 2\na\t2147483648\n\tb:2147483648\n")
        with pytest.raises(ParseError, match=r"bad.txt:3"):
            load_bigrams(path, vocab)

    def test_companion_with_valid_digest_but_bad_structure_is_ignored(
        self, tmp_path, vocab_and_table
    ):
        vocab, table = vocab_and_table
        path = tmp_path / "bi.txt"
        save_bigrams(table, path)
        cache = Path(companion_path(path))
        blob = bytearray(cache.read_bytes())
        # zero the last count, then re-seal the file so only the
        # structure check can notice
        blob[-8:-4] = (0).to_bytes(4, "little")
        blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        cache.write_bytes(bytes(blob))
        assert load_bigrams(path, vocab) == table

    def test_unknown_word_rejected(self, tmp_path, vocab_and_table):
        vocab, _ = vocab_and_table
        path = tmp_path / "bad.txt"
        path.write_text("#window 2\nzebra\t1\n\ta:1\n")
        with pytest.raises(ParseError, match="unknown word"):
            load_bigrams(path, vocab)

    @pytest.mark.parametrize("text,where", [
        ("#window two\n", "bad.txt:1: window is not an integer"),
        ("#window 0\n", r"bad.txt:1: window must be an integer in \[1, 18446744073709551615\], not 0$"),
        (f"#window {2**64}\n", r"bad.txt:1: window must be an integer in \[1, 18446744073709551615\]"),
        ("#window 2\n\tb:1\n", "bad.txt:2: context line before any record"),
        ("#window 2\na\t1\n\tb1\n", "bad.txt:3: expected '<TAB>context:count'"),
        ("#window 2\na\t1\n\tzebra:1\n", "bad.txt:3: unknown context word 'zebra'"),
        ("#window 2\na\t2\n\tb:1\n\tb:1\n", "bad.txt:4: duplicate context 'b'"),
        ("#window 2\na\t5\n\tb:1\nb\t1\n\ta:1\n",
         "bad.txt:4: row total does not match its context counts"),
        ("#window 2\na\t1\n\tb:1\na\t1\n\tc:1\n", "bad.txt:4: duplicate word 'a'"),
        ("#window 2\na\tmany\n", "bad.txt:2: row total 'many' is not an integer"),
        ("#window 2\na\t2\n\tb:1\n\n\tzebra:1\n", "bad.txt:5: unknown context word 'zebra'"),
        ("#window 2\na\t1\tx\n\tb:1\n", "bad.txt:2: expected 'word<TAB>row_total'"),
    ], ids=["window-text", "window-zero", "window-too-wide", "context-first", "no-colon",
            "unknown-context", "duplicate-context", "total-at-next-record", "duplicate-word",
            "total-text", "after-blank-line", "record-two-tabs"])
    def test_parse_errors_name_the_line(self, tmp_path, vocab_and_table, text, where):
        vocab, _ = vocab_and_table
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=where):
            load_bigrams(path, vocab)


class TestTableInvariants:
    def test_rejects_out_of_range_indices(self):
        vocab = count_unigrams(iter(["a", "b"]))
        with pytest.raises(ValueError):
            CooccurrenceTable.from_rows(1, vocab, {5: {0: 1}})

    def test_rejects_nonpositive_counts(self):
        vocab = count_unigrams(iter(["a", "b"]))
        with pytest.raises(ValueError):
            CooccurrenceTable.from_rows(1, vocab, {0: {1: 0}})

    def test_rows_reordered_to_vocab_order(self):
        vocab = count_unigrams(iter(["a", "b", "c"]))
        table = CooccurrenceTable.from_rows(1, vocab, {2: {0: 1}, 0: {1: 1}})
        assert [i for i, _, _ in table.pairs()] == [0, 2]

    def test_counts_beyond_int32_refused(self):
        vocab = count_unigrams(iter(["a", "b"]))
        with pytest.raises(ValueError, match="exceeds"):
            CooccurrenceTable.from_rows(1, vocab, {0: {1: 2**31}})

    def test_csr_structure_checked(self):
        vocab = count_unigrams(iter(["a", "b"]))
        good = (np.array([0, 2, 2]), np.array([0, 1]), np.array([1, 1]))
        assert CooccurrenceTable(1, vocab, *good).total_pairs == 2
        for indptr, indices, counts in [
            ([0, 2], [0, 1], [1, 1]),        # one row pointer missing
            ([0, 3, 2], [0, 1], [1, 1]),     # not monotone
            ([0, 2, 2], [1, 0], [1, 1]),     # columns out of order
            ([0, 2, 2], [1, 1], [1, 1]),     # duplicate column
            ([0, 2, 2], [0, 2], [1, 1]),     # column out of range
            ([0, 2, 2], [0, 1], [1, 0]),     # zero count
            ([0, 1, 1], [0.7], [1.5]),       # not integers: would become context 0, count 1
            ([0.0, 2.0, 2.0], [0, 1], [1, 1]),  # float row pointers
        ]:
            with pytest.raises(ValueError):
                CooccurrenceTable(1, vocab, np.array(indptr), np.array(indices), np.array(counts))

    def test_csr_shape_and_span_checked(self):
        vocab = count_unigrams(iter(["a", "b"]))
        with pytest.raises(ValueError, match="1-d"):
            CooccurrenceTable(1, vocab, np.array([0, 2, 2]), np.array([[0, 1]]), np.array([1, 1]))
        with pytest.raises(ValueError, match="does not span"):
            CooccurrenceTable(1, vocab, np.array([0, 2, 2]), np.array([0, 1]), np.array([1]))

    def test_equality_with_another_type_is_not_implemented(self):
        table = CooccurrenceTable.from_rows(1, count_unigrams(iter(["a", "b"])), {0: {1: 1}})
        assert table.__eq__((1, 2)) is NotImplemented and table != (1, 2)
