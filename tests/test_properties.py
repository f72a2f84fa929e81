"""Property tests for tokenizing, pair counting, the bigram file's binary
companion and the O(nnz) weight normalizer.

The companion is a cache: whatever state it is in (current, stale, damaged
or missing), ``load_bigrams`` must return exactly what parsing the text
returns, or raise the same ParseError.
"""

import io
import re
import string
import tempfile
from collections import Counter
from pathlib import Path

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
from pmivec.ioutil import ParseError
from pmivec.statistics import PmiConfig, pmi_block, weight_normalizer

WORDS = ["aa", "bb", "cc", "dd", "ee"]
tokens_st = st.lists(st.sampled_from(WORDS + ["oov", DOC_BREAK]), max_size=200)
windows_st = st.integers(min_value=1, max_value=5)
SETTINGS = settings(max_examples=60, deadline=None)


def per_span_tokenize(lines):
    """Token rules applied one whitespace-separated span at a time: lowercase
    the span, strip ASCII punctuation, keep it if it is all of a-z.  A line
    that is empty but for its newline is a document break."""
    strip = str.maketrans("", "", string.punctuation)
    for line in lines:
        line = line.rstrip("\n")
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


@SETTINGS
@given(tokens_st, windows_st, st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.sampled_from([0.5, 0.75, 1.0, 2.0]), st.sampled_from([None, 1e-3, 0.05]), st.data())
def test_weight_normalizer_equals_dense_block_maximum(tokens, window, lam, alpha, cap, data):
    got = counted(tokens, window)
    if got is None or got[1].total_pairs == 0:
        return
    vocab, table = got
    core = range(0, data.draw(st.integers(1, len(vocab)), label="core size"))
    cfg = PmiConfig(lam=lam, alpha=alpha, cap=cap)
    _, _, normalizer = pmi_block(core, core, table, cfg)
    assert weight_normalizer(core, table, cfg) == normalizer
