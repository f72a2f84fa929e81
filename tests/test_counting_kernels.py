"""The counting kernels against the per-pair writer, per-line tokenizer and
run-length code they replaced, kept here as oracles: the bigram text and its
companion, the token stream and the pair table must not change by one byte
or one token."""

import io
import os
import string
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmivec
from pmivec import corpus
from pmivec.corpus import (
    DOC_BREAK,
    MAX_COUNT,
    CooccurrenceTable,
    Vocabulary,
    companion_path,
    count_bigrams,
    save_bigrams,
    tokenize,
)
from pmivec.ioutil import atomic_write, sha256

SETTINGS = settings(max_examples=60, deadline=None)


def oracle_tokenize(source):
    """Tokens one line at a time, one generator step per token."""
    if isinstance(source, str):
        source = (m.group().rstrip("\r\n") for m in corpus._LINE.finditer(source))
    strip = str.maketrans("", "", string.punctuation)
    for line in source:
        if not line.rstrip("\r\n"):
            yield DOC_BREAK
            continue
        for token in line.lower().translate(strip).split():
            if token.isascii() and token.isalpha():
                yield token


def oracle_save_bigrams(table, path):
    """The bigram text formatted one f-string per pair, whole rows of about
    ``corpus._WRITE_PAIRS`` pairs at a time, and its companion."""
    words, ptr = table.vocab.words, table.indptr
    text_digest = sha256()
    with atomic_write(path, binary=True) as fh:

        def write(text):
            data = text.encode("utf-8")
            text_digest.update(data)
            fh.write(data)

        write(f"#window {table.window}\n")
        start = 0
        while start < len(words):
            stop = max(start + 1,
                       int(np.searchsorted(ptr, ptr[start] + corpus._WRITE_PAIRS, "right")) - 1)
            lo, hi = ptr[start], ptr[stop]
            lead = np.repeat(np.arange(start, stop), np.diff(ptr[start : stop + 1]))
            order = np.lexsort((-table.counts[lo:hi], lead))
            contexts = table.indices[lo:hi][order].tolist()
            counts = table.counts[lo:hi][order].tolist()
            bounds = (ptr[start : stop + 1] - lo).tolist()
            lines = []
            for i, a, b in zip(range(start, stop), bounds, bounds[1:]):
                if a < b:
                    lines.append(f"{words[i]}\t{sum(counts[a:b])}\n")
                    lines.extend([f"\t{words[j]}:{c}\n" for j, c in zip(contexts[a:b], counts[a:b])])
            write("".join(lines))
            start = stop
    corpus._save_companion(table, companion_path(path), text_digest.digest())


# words: ASCII, non-ASCII and one that holds a colon, as a unigram file may
NAMES = ["the", "café", "a:b", "zz", "straße", "k", "x"]


@st.composite
def tables(draw):
    n = draw(st.integers(1, len(NAMES)))
    vocab = Vocabulary(NAMES[:n], list(range(n, 0, -1)), n * (n + 1) // 2)
    # counts near the int32 limit make row totals above 2**31
    count_st = st.one_of(st.integers(1, 9), st.integers(1, 5000),
                         st.integers(MAX_COUNT - 3, MAX_COUNT))
    rows = {}
    for i in range(n):
        contexts = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        if contexts:
            rows[i] = {j: draw(count_st) for j in contexts}
    return CooccurrenceTable.from_rows(draw(st.integers(1, 9)), vocab, rows)


@SETTINGS
@given(tables(), st.integers(1, 6))
def test_writer_matches_the_per_pair_oracle(table, write_pairs):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(corpus, "_WRITE_PAIRS", write_pairs):
        ours, theirs = Path(tmp, "ours.txt"), Path(tmp, "theirs.txt")
        save_bigrams(table, ours)
        oracle_save_bigrams(table, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        assert Path(companion_path(ours)).read_bytes() == Path(companion_path(theirs)).read_bytes()


def test_writer_matches_the_oracle_on_large_counts_and_empty_rows(tmp_path):
    vocab = Vocabulary(["a", "b", "c", "d"], [4, 3, 2, 1], 10)
    rows = {0: {0: MAX_COUNT, 1: MAX_COUNT, 3: 4095}, 2: {0: 4096, 1: 4095, 3: 1}}
    table = CooccurrenceTable.from_rows(2, vocab, rows)
    for write_pairs in (1, 2, 1 << 13):
        with mock.patch.object(corpus, "_WRITE_PAIRS", write_pairs):
            save_bigrams(table, tmp_path / "ours.txt")
            oracle_save_bigrams(table, tmp_path / "theirs.txt")
        assert (tmp_path / "ours.txt").read_bytes() == (tmp_path / "theirs.txt").read_bytes()
    assert (tmp_path / "ours.txt").read_text() == (
        f"#window 2\na\t{2 * MAX_COUNT + 4095}\n\ta:{MAX_COUNT}\n\tb:{MAX_COUNT}\n\td:4095\n"
        "c\t8192\n\ta:4096\n\tb:4095\n\td:1\n")


# every ASCII character, the separators \x1c-\x1f among them, the Kelvin
# sign (which lowercases to ASCII "k") and other letters with unusual case
# mappings; letters and spaces are weighted up so that most lines hold tokens
LINE_CHARS = st.one_of(
    st.sampled_from([chr(c) for c in range(128)]
                    + ["\u212a", "\u0130", "\u00df", "\u03a3", "\u00e9", "\u00a0", "\u3000", "\x85"]),
    st.sampled_from(string.ascii_letters + "     "),
)
lines_st = st.lists(st.one_of(st.just(""), st.text(LINE_CHARS, max_size=12)), max_size=40)


@SETTINGS
@given(lines_st, st.integers(1, 4))
def test_tokenizer_matches_the_per_line_oracle(lines, chunk_lines):
    text = "\n".join(lines)
    with mock.patch.object(corpus, "_CHUNK_LINES", chunk_lines):
        # a list of lines without their newline
        assert list(tokenize(lines)) == list(oracle_tokenize(lines))
        # a string, split as open() splits a file
        assert list(tokenize(text)) == list(oracle_tokenize(text))
        # a file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "corpus.txt")
            path.write_text(text, encoding="utf-8", newline="")
            with open(path, encoding="utf-8") as fh:
                ours = list(tokenize(fh))
            with open(path, encoding="utf-8") as fh:
                assert ours == list(oracle_tokenize(fh))
        # a text stream that splits lines as open() does; a plain io.StringIO
        # keeps a lone "\r" inside its line, as a list of lines would
        assert list(tokenize(io.StringIO(text, newline=None))) == ours


def test_tokenizer_matches_the_oracle_across_real_chunks():
    rng = np.random.default_rng(25)
    pool = ["the", "Cat", "sat,", "on", "x-ray", "café", "Kelvin", "2nd", "a\x1cb", ""]
    lines = [" ".join(pool[k] for k in rng.integers(0, len(pool), rng.integers(0, 6)))
             for _ in range(5 * corpus._CHUNK_LINES + 7)]
    text = "\n".join(lines) + "\n"
    assert list(tokenize(text)) == list(oracle_tokenize(text))
    assert list(tokenize(lines)) == list(oracle_tokenize(lines))
    assert DOC_BREAK in list(tokenize(lines))


def test_saving_a_million_pairs_stays_in_bounded_memory():
    # the text of 1M pairs is about 11 MB; writing it a few thousand pairs at
    # a time left peak RSS where the table had put it (the per-pair writer
    # this replaced raised it by 3 MB), and building it whole raised it by 215 MB
    script = (
        "import resource, sys, tempfile\n"
        "import numpy as np\n"
        "from pmivec.corpus import CooccurrenceTable, Vocabulary, save_bigrams\n"
        "n, per_row = 20_000, 50\n"
        "vocab = Vocabulary([f'w{k}' for k in range(n)], [n + 1 - k for k in range(n)], 10**9)\n"
        "# built in place in their final dtypes: no transient above the table's own 8 MB\n"
        "indices = np.arange(n, dtype=np.int32)[:, None] * 7 + np.arange(per_row, dtype=np.int32) * 397\n"
        "np.remainder(indices, n, out=indices)\n"
        "indices.sort(axis=1)\n"
        "counts = np.random.default_rng(0).integers(1, 100, size=n * per_row, dtype=np.int32)\n"
        "table = CooccurrenceTable(5, vocab, np.arange(n + 1) * per_row, indices.ravel(), counts)\n"
        "unit = 1 if sys.platform == 'darwin' else 1024\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit\n"
        "    save_bigrams(table, tmp + '/bigrams.txt')\n"
        "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit\n"
        "    print(len(table.indices), after - before)\n"
    )
    src = str(Path(pmivec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    pairs, grown = map(int, done.stdout.split())
    assert pairs == 1_000_000
    assert grown < 8 * 2**20, f"peak RSS rose by {grown / 2**20:.1f} MB"


@st.composite
def key_arrays(draw):
    """Pair keys ``i * n + j`` in int32 or int64: empty, one key, all equal,
    or runs of equal keys long enough to cross small slice boundaries."""
    n = draw(st.integers(1, 6))
    key = st.integers(0, n * n - 1)
    runs = draw(st.one_of(
        st.just([]),
        st.lists(st.tuples(key, st.integers(1, 9)), min_size=1, max_size=1),
        st.lists(st.tuples(key, st.integers(1, 9)), max_size=12),
    ))
    keys = [k for k, length in runs for _ in range(length)]
    return n, np.array(draw(st.permutations(keys)), dtype=draw(st.sampled_from([np.int32, np.int64])))


@SETTINGS
@given(key_arrays(), st.integers(1, 5))
def test_run_lengths_match_np_unique(drawn, run_slice):
    n, keys = drawn
    unique, counts = np.unique(keys, return_counts=True)
    with mock.patch.object(corpus, "_RUN_SLICE", run_slice):
        indptr, indices, got = corpus._csr_from_keys(keys.copy(), n)
    assert (indptr.dtype, indices.dtype, got.dtype) == (np.int64, np.int32, np.int32)
    assert indptr.tolist() == np.searchsorted(unique, np.arange(n + 1) * n).tolist()
    assert indices.tolist() == (unique % n).tolist()
    assert got.tolist() == counts.tolist()


@st.composite
def distinct_keys(draw):
    """Distinct pair keys ``i * n + j`` in random order, int32 or int64, and
    a count in ``[1, MAX_COUNT]`` for each, int32 or int64."""
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(st.integers(0, n * n - 1), unique=True, max_size=n * n))
    counts = draw(st.lists(st.one_of(st.just(MAX_COUNT), st.integers(1, MAX_COUNT)),
                           min_size=len(keys), max_size=len(keys)))
    return (n, np.array(keys, dtype=draw(st.sampled_from([np.int32, np.int64]))),
            np.array(counts, dtype=draw(st.sampled_from([np.int32, np.int64]))))


@SETTINGS
@given(distinct_keys())
@example((1, np.array([], dtype=np.int32), np.array([], dtype=np.int32)))
@example((2, np.array([3, 0], dtype=np.int64), np.array([MAX_COUNT, 1], dtype=np.int64)))
def test_distinct_keys_take_their_counts_in_key_order(drawn):
    # keys and counts from a text or a dict: every key is distinct, so the
    # table is the keys in argsort order, each with its own count
    n, keys, counts = drawn
    given_keys, given_counts = keys.copy(), counts.copy()
    order = np.argsort(keys)
    indptr, indices, got = corpus._csr_from_keys(keys, n, counts)
    assert (indptr.dtype, indices.dtype, got.dtype) == (np.int64, np.int32, np.int32)
    assert indptr.tolist() == np.searchsorted(keys[order], np.arange(n + 1) * n).tolist()
    assert indices.tolist() == (keys[order] % n).tolist()
    assert got.tolist() == counts[order].tolist()
    # the arguments are read, not reordered
    assert keys.tolist() == given_keys.tolist() and counts.tolist() == given_counts.tolist()


@st.composite
def csr_rows(draw):
    """(n, rows of contexts) with rows often empty, sometimes out of order or repeating."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.one_of(
        st.just([]),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True).map(sorted),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
    ), min_size=n, max_size=n))
    return n, rows


@SETTINGS
@given(csr_rows(), st.integers(1, 5))
def test_row_order_checked_in_slices(drawn, run_slice):
    # the order check takes a few neighbours at a time; a slice edge at a
    # row start or inside a row changes nothing
    n, rows = drawn
    vocab = Vocabulary([f"w{k}" for k in range(n)], [1] * n, n)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([j for row in rows for j in row], dtype=np.int32)
    ordered = all(a < b for row in rows for a, b in zip(row, row[1:]))
    with mock.patch.object(corpus, "_RUN_SLICE", run_slice):
        try:
            CooccurrenceTable(1, vocab, indptr, indices, np.ones(indices.size, dtype=np.int32))
        except ValueError as exc:
            assert not ordered and "not sorted and unique within a row" in str(exc)
        else:
            assert ordered


def test_table_checks_stay_within_a_slice_of_memory():
    # about 2M entries: the checks hold a slice of neighbour comparisons,
    # not a difference and a mask over every entry (about 5 bytes an entry)
    rng = np.random.default_rng(31)
    n = 2000
    vocab = Vocabulary([f"w{k}" for k in range(n)], [1] * n, n)
    lengths = rng.integers(0, 2000, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate([np.sort(rng.choice(n, k, replace=False)) for k in lengths]).astype(np.int32)
    counts = rng.integers(1, 100, indices.size, dtype=np.int32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = CooccurrenceTable(2, vocab, indptr, indices, counts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.indices is indices and 1_800_000 < indices.size < 2_200_000
    assert peak / indices.size <= 0.5


def test_run_starts_widen_past_max_count():
    fresh = np.array([True, False, True, True, False])
    assert corpus._run_starts(fresh).dtype == np.int32
    with mock.patch.object(corpus, "MAX_COUNT", 4):
        starts = corpus._run_starts(fresh)
    assert starts.dtype == np.int64 and starts.tolist() == [0, 2, 3, 5]


def test_streams_without_pairs_count_none():
    vocab = Vocabulary(["a", "b"], [2, 1], 3)
    # only document breaks: no ids, so no window offsets
    only_breaks = count_bigrams(iter([DOC_BREAK] * 4), vocab, 3)
    # only out-of-vocabulary tokens: offsets, but no keys
    only_unknown = count_bigrams(iter(["x", "y", "x", DOC_BREAK, "z"]), vocab, 3)
    for table in (only_breaks, only_unknown, count_bigrams(iter([]), vocab, 3)):
        assert table.total_pairs == 0 and table.indices.size == 0 and table.counts.size == 0
        assert table.indptr.tolist() == [0, 0, 0]


def test_text_parse_stays_in_its_memory_budget(tmp_path):
    # 250k distinct pairs read from their text, without a companion.  At its
    # peak the parse holds the keys (8 bytes a pair) and counts (4) it read,
    # the sort order (8) and both in key order (12), of which the table keeps
    # 8: about 24 bytes a pair above the table, where int64 counts and a
    # run-length merge of keys that cannot repeat took about 49
    rng = np.random.default_rng(37)
    n = 2000
    vocab = Vocabulary([f"w{k}" for k in range(n)], [1] * n, 10**6)
    keys = np.sort(rng.choice(n * n, 250_000, replace=False))
    table = CooccurrenceTable(2, vocab, np.searchsorted(keys, np.arange(n + 1) * n), keys % n,
                              rng.integers(1, 5000, keys.size))
    path = tmp_path / "bigrams.txt"
    save_bigrams(table, path)
    os.unlink(companion_path(path))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parsed = corpus._parse_bigrams(path, vocab)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = parsed.indptr.nbytes + parsed.indices.nbytes + parsed.counts.nbytes
    assert parsed == table
    assert (peak - kept) / keys.size <= 36


def test_counting_stays_in_its_memory_budget():
    # about 950k pairs, nearly all distinct.  Beyond the table it returns,
    # counting holds the pair keys (4 bytes a pair, as int32 at this
    # vocabulary size), one array of run starts and small per-token arrays:
    # about 8 bytes a pair at its peak, where masks for every offset at
    # once, int64 run starts and copies of the finished arrays took 22
    rng = np.random.default_rng(29)
    n, tokens = 20_000, 200_000
    words = [f"w{k}" for k in range(n)]
    vocab = Vocabulary(words, [1] * n, 10**6)
    pool = np.array(words + [f"oov{k}" for k in range(500)], dtype=object)
    # about 2.5% of the tokens are out of vocabulary
    draws = np.where(rng.random(tokens) < 0.025, rng.integers(n, n + 500, tokens), rng.integers(0, n, tokens))
    stream = pool[draws].tolist()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = count_bigrams(stream, vocab, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = table.indptr.nbytes + table.indices.nbytes + table.counts.nbytes
    assert 900_000 < table.total_pairs < 1_000_000
    assert table.indices.size > 0.99 * table.total_pairs
    assert (peak - kept) / table.total_pairs <= 12
