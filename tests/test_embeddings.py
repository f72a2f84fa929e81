import numpy as np
import pytest

from pmivec.embeddings import EmbeddingSet, load_vec, save_vec
from pmivec.ioutil import ParseError, file_sha256


class TestEmbeddingSet:
    def test_basic_lookup(self):
        emb = EmbeddingSet(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert emb.dim == 2 and len(emb) == 2
        assert "a" in emb and "z" not in emb
        np.testing.assert_array_equal(emb.vector("b"), [3.0, 4.0])

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSet(["a", "a"], np.zeros((2, 2)))

    @pytest.mark.parametrize("word", ["new york", "", "tab\tword", "line\n"])
    def test_word_save_vec_cannot_write_rejected(self, word):
        with pytest.raises(ValueError, match="empty or holds whitespace"):
            EmbeddingSet(["a", word], np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingSet(["a"], np.array([[np.nan, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSet(["a", "b"], np.zeros((3, 2)))

    def test_vectors_must_be_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            EmbeddingSet(["a", "b"], np.zeros(2))


class TestSaveVec:
    def test_single_zero_record_layout(self, tmp_path):
        path = tmp_path / "one.vec"
        save_vec(EmbeddingSet(["w"], np.zeros((1, 2))), path)
        assert path.read_text() == "1 2\nw 0 0\n"

    def test_empty_set_keeps_dimension_header(self, tmp_path):
        path = tmp_path / "empty.vec"
        save_vec(EmbeddingSet([], np.zeros((0, 7))), path)
        assert path.read_text() == "0 7\n"
        loaded = load_vec(path)
        assert len(loaded) == 0 and loaded.dim == 7

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = EmbeddingSet([f"w{k}x".replace("0", "o") for k in range(50)],
                           rng.normal(scale=3.0, size=(50, 10)))
        path = tmp_path / "fifty.vec"
        save_vec(emb, path)
        loaded = load_vec(path)
        assert loaded.words == emb.words
        np.testing.assert_allclose(loaded.vectors, emb.vectors, rtol=1e-5, atol=1e-9)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        emb = EmbeddingSet(["aa", "bb"], rng.normal(size=(2, 4)))
        save_vec(emb, tmp_path / "a.vec")
        save_vec(emb, tmp_path / "b.vec")
        assert (tmp_path / "a.vec").read_bytes() == (tmp_path / "b.vec").read_bytes()

    def test_awkward_values_match_per_float_formatting(self, tmp_path):
        row = np.array([-0.0, 1e-300, 123456789.0, 0.1, -2.5e-7, 1e21, 5e-324, 7.0])
        path = tmp_path / "awkward.vec"
        save_vec(EmbeddingSet(["odd"], row[None, :]), path)
        expected = "1 8\nodd " + " ".join(format(x, ".6g") for x in row) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_returns_the_sha256_of_its_bytes(self, tmp_path):
        # more rows than one write group: still the header, then one record
        # of "%.6g" values per word
        rng = np.random.default_rng(2)
        words = [f"w{k}" for k in range(150)]
        emb = EmbeddingSet(words, rng.normal(scale=10.0, size=(150, 3)))
        path = tmp_path / "many.vec"
        digest = save_vec(emb, path)
        expected = "150 3\n" + "".join(
            f"{word} " + " ".join(format(x, ".6g") for x in row) + "\n"
            for word, row in zip(words, emb.vectors))
        assert path.read_bytes() == expected.encode()
        assert digest == file_sha256(path)


class TestLoadVec:
    def test_header_record_mismatch(self, tmp_path):
        path = tmp_path / "short.vec"
        path.write_text("3 2\na 1 2\nb 3 4\n")
        with pytest.raises(ParseError, match="claims 3"):
            load_vec(path)

    def test_record_with_missing_value_names_word(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 3\nqq 1 2\n")
        with pytest.raises(ParseError, match="qq"):
            load_vec(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 2\nqq nan 2\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_vec(path)

    def test_duplicate_word_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("2 1\na 1\na 2\n")
        with pytest.raises(ParseError, match=r"bad.vec:3"):
            load_vec(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("hello\n")
        with pytest.raises(ParseError, match=r"bad.vec:1"):
            load_vec(path)

    def test_header_fields_not_integers_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 1.5\na 1\n")
        with pytest.raises(ParseError, match=r"bad.vec:1: header fields are not integers"):
            load_vec(path)

    @pytest.mark.parametrize("header", ["-1 2", "1 0"], ids=["negative-count", "zero-dim"])
    def test_header_out_of_range_rejected(self, tmp_path, header):
        path = tmp_path / "bad.vec"
        path.write_text(f"{header}\na 1 2\n")
        with pytest.raises(ParseError, match=r"bad.vec:1: header out of range"):
            load_vec(path)

    def test_extra_records_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 1\na 1\nb 2\n")
        with pytest.raises(ParseError, match="more than 1"):
            load_vec(path)

    def test_oversized_header_is_parse_error(self, tmp_path):
        path = tmp_path / "huge.vec"
        path.write_text("100000000000 100\nfoo 1\n")
        with pytest.raises(ParseError, match="huge.vec:2"):
            load_vec(path)
