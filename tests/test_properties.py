"""Property tests for tokenizing, pair counting, the bigram file's binary
companion and the ``.vec`` parser.

The companion is a cache: whatever state it is in (current, stale, damaged
or missing), ``load_bigrams`` must return exactly what parsing the text
returns, or raise the same ParseError.
"""

import io
import math
import re
import string
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmivec.corpus import (
    DOC_BREAK,
    Vocabulary,
    companion_path,
    count_bigrams,
    count_unigrams,
    load_bigrams,
    save_bigrams,
    tokenize,
)
from pmivec.embeddings import EmbeddingSet, load_vec, save_vec
from pmivec.ioutil import ParseError

WORDS = ["aa", "bb", "cc", "dd", "ee"]
tokens_st = st.lists(st.sampled_from(WORDS + ["oov", DOC_BREAK]), max_size=200)
windows_st = st.integers(min_value=1, max_value=5)
SETTINGS = settings(max_examples=60, deadline=None)


def per_span_tokenize(lines):
    """Token rules applied one whitespace-separated span at a time: lowercase
    the span, strip ASCII punctuation, keep it if it is all of a-z.  A line
    that is empty but for its line ending is a document break."""
    strip = str.maketrans("", "", string.punctuation)
    for line in lines:
        line = line.rstrip("\r\n")
        if line == "":
            yield DOC_BREAK
            continue
        for raw in line.split():
            raw = raw.lower().translate(strip)
            if raw and re.fullmatch("[a-z]+", raw):
                yield raw


# ASCII letters, digits and punctuation; letters whose case mappings are
# unusual (Kelvin sign, dotted capital I, sharp s, final and capital sigma,
# ligatures); and ASCII and Unicode whitespace and line breaks
TEXT_CHARS = (string.ascii_letters + string.digits + string.punctuation
              + "\u212a\u0130\u00df\u03c2\u03a3\u00e9\u00c9\ufb01\u0131"
              + " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u00a0\u2003\u2028\u2029\u3000")
text_st = st.text(st.one_of(st.sampled_from(TEXT_CHARS), st.characters()), max_size=120)


@SETTINGS
@given(text_st)
def test_tokenize_equals_per_span_rules(text):
    assert list(tokenize(text)) == list(per_span_tokenize(io.StringIO(text, newline=None)))
    assert list(tokenize(io.StringIO(text))) == list(per_span_tokenize(io.StringIO(text)))


@SETTINGS
@given(st.text(st.one_of(st.sampled_from(TEXT_CHARS), st.characters(exclude_categories=["Cs"])),
               max_size=120))
@example("a\r\rb\r\n\x0c\x0cc\u2028\u2028d")
def test_tokenize_string_equals_file(text):
    # a file opened with open() breaks lines at \n, \r and \r\n only
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "text.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            assert list(tokenize(text)) == list(tokenize(fh))


def brute_force_pairs(tokens, vocab, window):
    """Double loop over each document's (t, t + k) positions, k <= window."""
    pairs = Counter()
    doc = []
    for tok in tokens + [DOC_BREAK]:
        if tok is not DOC_BREAK:
            doc.append(tok)
            continue
        for t in range(len(doc)):
            for k in range(1, window + 1):
                if t + k < len(doc) and doc[t] in vocab and doc[t + k] in vocab:
                    pairs[(vocab.index[doc[t]], vocab.index[doc[t + k]])] += 1
        doc = []
    return pairs


def counted(tokens, window):
    """Vocabulary (OOV token left out) and table of a token list, or None."""
    vocab = count_unigrams(iter(t for t in tokens if t != "oov"))
    if len(vocab) == 0:
        return None
    return vocab, count_bigrams(iter(tokens), vocab, window)


def outcome(path, vocab):
    """The table load_bigrams returns, or the ParseError it raises, with the
    path taken out so that files in two directories compare equal."""
    try:
        return load_bigrams(path, vocab)
    except ParseError as exc:
        return ("ParseError", exc.line_no, str(exc)[len(exc.path):])


def parsed(text: bytes, vocab, workdir: Path):
    """What parsing ``text`` gives, from a directory with no companion."""
    plain = workdir / "plain"
    plain.mkdir(exist_ok=True)
    path = plain / "bigrams.txt"
    path.write_bytes(text)
    return outcome(path, vocab)


@SETTINGS
@given(tokens_st, windows_st)
def test_count_equals_brute_force_pairs(tokens, window):
    got = counted(tokens, window)
    if got is None:
        return
    vocab, table = got
    assert Counter({(i, j): c for i, j, c in table.pairs()}) == brute_force_pairs(tokens, vocab, window)
    assert table.total_pairs == sum(brute_force_pairs(tokens, vocab, window).values())


@SETTINGS
@given(tokens_st, windows_st)
def test_companion_load_equals_text_parse(tokens, window):
    got = counted(tokens, window)
    if got is None:
        return
    vocab, table = got
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "bigrams.txt"
        save_bigrams(table, path)
        assert Path(companion_path(path)).is_file()
        assert load_bigrams(path, vocab) == table
        assert parsed(path.read_bytes(), vocab, work) == table


@SETTINGS
@given(tokens_st, windows_st, st.data())
def test_stale_companion_gives_the_text_parse(tokens, window, data):
    got = counted(tokens, window)
    if got is None:
        return
    vocab, table = got
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "bigrams.txt"
        save_bigrams(table, path)
        text = path.read_bytes()
        if data.draw(st.booleans(), label="edit the text"):
            at = data.draw(st.integers(0, len(text)), label="edit position")
            cut = data.draw(st.integers(0, 4), label="bytes removed")
            insert = data.draw(st.text(alphabet="ab\t:\n0123456789-", max_size=4), label="inserted")
            text = text[:at] + insert.encode() + text[at + cut :]
            path.write_bytes(text)
            load_vocab = vocab
        else:
            words = data.draw(st.permutations(vocab.words), label="reordered words")
            load_vocab = Vocabulary(list(words), vocab.counts, vocab.total_tokens)
        assert outcome(path, load_vocab) == parsed(text, load_vocab, work)


@SETTINGS
@given(tokens_st, windows_st, st.data())
def test_damaged_companion_gives_the_text_parse(tokens, window, data):
    got = counted(tokens, window)
    if got is None:
        return
    vocab, table = got
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "bigrams.txt"
        save_bigrams(table, path)
        cache = Path(companion_path(path))
        blob = bytearray(cache.read_bytes())
        how = data.draw(st.sampled_from(["truncate", "flip", "extend", "directory"]), label="damage")
        if how == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1), label="new length") :]
        elif how == "flip":
            at = data.draw(st.integers(0, len(blob) - 1), label="byte")
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        elif how == "extend":
            blob += data.draw(st.binary(min_size=1, max_size=16), label="tail")
        if how == "directory":
            cache.unlink()
            cache.mkdir()
        else:
            cache.write_bytes(bytes(blob))
        assert load_bigrams(path, vocab) == table
        assert parsed(path.read_bytes(), vocab, work) == table


def per_float_load_vec(path) -> EmbeddingSet:
    """The ``.vec`` parser that converted one float at a time, kept as the
    oracle of ``load_vec``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(path, 1, "expected '<word count> <dim>' header")
        try:
            n, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, 1, "header fields are not integers") from None
        if n < 0 or dim < 1:
            raise ParseError(path, 1, "header out of range")
        words, seen, values = [], set(), []
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            if len(words) == n:
                raise ParseError(path, line_no, f"more than {n} records")
            fields = line.split()
            word = fields[0]
            if len(fields) != dim + 1:
                raise ParseError(
                    path, line_no, f"record for {word!r} has {len(fields) - 1} values, expected {dim}"
                )
            if word in seen:
                raise ParseError(path, line_no, f"duplicate word {word!r}")
            try:
                row = [float(x) for x in fields[1:]]
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric value in record for {word!r}") from None
            if not all(map(math.isfinite, row)):
                raise ParseError(path, line_no, f"non-finite value in record for {word!r}")
            values.extend(row)
            seen.add(word)
            words.append(word)
        if len(words) != n:
            raise ParseError(path, line_no, f"header claims {n} records, found {len(words)}")
    return EmbeddingSet(words, np.array(values, dtype=float).reshape(n, dim))


def vec_outcome(load, path):
    """Words and vector bytes that ``load`` returns, or its ParseError text."""
    try:
        emb = load(path)
    except ParseError as exc:
        return str(exc)
    return emb.words, emb.vectors.shape, emb.vectors.tobytes()


finite_st = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)
# field tokens that are non-finite, non-numeric, or numeric only to float()
ODD_FIELDS = ["nan", "-inf", "Infinity", "1e999", "x", "1e", "0x10", "1_0", "\u0661\u0662", "+.5", "1,5"]
field_st = st.one_of(finite_st.map(lambda x: format(x, ".6g")), finite_st.map(repr),
                     finite_st.map(repr), st.sampled_from(ODD_FIELDS))
space_st = st.sampled_from([" ", "  ", "\t", "\x0c", "\x1c", "\xa0", "\u3000"])


@st.composite
def vec_texts(draw):
    """A ``.vec`` text that is well formed or has one or more defects."""
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        word = draw(st.sampled_from(["a", "b", "cc", "d\u00e9", "e", "f", "g"]))
        count = max(dim + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])), 0)
        fields = draw(st.lists(field_st, min_size=count, max_size=count))
        lines.append(draw(space_st).join([word, *fields]))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t\x1c", "\u3000"])))
    records = sum(1 for line in lines if line.split())
    n = max(records + draw(st.sampled_from([0, 0, 0, 0, -1, 1])), 0)
    header = draw(st.sampled_from([f"{n} {dim}"] * 8 + [f"{n}", f"{n} x", f"-1 {dim}", f"{n} 0"]))
    return "\n".join([header, *lines]) + "\n"


@SETTINGS
@given(vec_texts())
@example("2 1\na inf\na 1\n")  # a non-finite value comes before a later duplicate
@example("1 1\na nan\nb 1\n")  # and before a record too many
@example("2 2\na 1 nan\nb x 1\n")  # and before a later non-numeric value
@example("2 2\na 1 1e999\nb 1\n")  # and before a later short record
@example("3 1\na 1\nb -inf\n")  # and before a short file
@example("2 2\na 1 2\nb nan x\n")  # a non-numeric value in the same record comes first
def test_load_vec_equals_per_float_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.vec"
        path.write_text(text, encoding="utf-8")
        assert vec_outcome(load_vec, path) == vec_outcome(per_float_load_vec, path)


@SETTINGS
@given(st.integers(0, 6), st.integers(1, 4), st.data())
def test_vec_round_trip_within_six_digits(n, dim, data):
    values = data.draw(st.lists(finite_st, min_size=n * dim, max_size=n * dim))
    vectors = np.array(values, dtype=float).reshape(n, dim)
    words = [f"w{k}" for k in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.vec"
        save_vec(EmbeddingSet(words, vectors), path)
        loaded = load_vec(path)
    assert loaded.words == words
    np.testing.assert_allclose(loaded.vectors, vectors, rtol=5e-6, atol=0)
