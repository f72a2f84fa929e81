"""Corpus ingestion: tokenizing, vocabulary building, windowed pair counting.

Tokens follow fixed rules: a line is lowercased, ASCII punctuation is
removed, and each remaining whitespace-separated span is kept only when it
is made solely of ASCII letters.  An empty line separates documents.

Pair counts live in one CSR table.  ``save_bigrams`` writes them as text plus
a binary companion, which ``load_bigrams`` reads instead of parsing the text
whenever it was written for that very text and vocabulary.

The unigram path (``tokenize``, ``Vocabulary``, ``count_unigrams`` and the
unigram file) is pure Python: numpy is imported only by the pair-table code
that uses it, so ``count-unigrams`` runs without loading it.
"""

from __future__ import annotations

import os
import re
import string
import struct
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Iterable, Iterator

from .ioutil import ParseError, atomic_write, check_setting, file_sha256, open_utf8, sha256
from .settings import MAX_WINDOW

if TYPE_CHECKING:  # annotations only; the pair-table code imports numpy itself
    import numpy as np

#: Emitted between documents; counting windows never cross it.
DOC_BREAK = None

_STRIP = str.maketrans("", "", string.punctuation)
#: One line of a string with its ending, split as ``open()`` splits a file.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
#: Lines that ``tokenize`` reads at a time.
_CHUNK_LINES = 256


def tokenize(source: str | Iterable[str]) -> Iterator[str | None]:
    """Yield cleaned tokens from a string or an iterable of lines.

    Streams in bounded memory: lines are read a few hundred at a time, and
    each run of non-blank lines among them is cleaned as one text.  Content
    never raises: spans that fail the token rules are dropped.  Empty lines
    are yielded as :data:`DOC_BREAK`.  A string is split into lines exactly
    as ``open()`` splits a file: at ``\n``, ``\r`` and ``\r\n`` only.
    Lines from an iterable may lack their line ending.  Whatever the source,
    a line that holds nothing but ``\r`` and ``\n`` is empty.
    """
    if isinstance(source, str):
        source = (m.group() for m in _LINE.finditer(source))
    return chain.from_iterable(_token_runs(source))


def _token_runs(lines: Iterable[str]) -> Iterator[list[str] | tuple[None]]:
    """Token lists of the runs of non-blank lines, and ``(DOC_BREAK,)`` per
    blank line, in order."""
    lines = iter(lines)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        run: list[str] = []
        for line in chunk:
            if line.rstrip("\r\n"):
                run.append(line)
                continue
            if run:
                yield _run_tokens(run)
                run = []
            yield (DOC_BREAK,)
        if run:
            yield _run_tokens(run)


def _run_tokens(lines: list[str]) -> list[str]:
    """The tokens of consecutive non-blank lines: the spans made solely of
    ASCII letters once lowercased and stripped of punctuation."""
    text = "\n".join(lines).lower().translate(_STRIP)
    return [token for token in text.split() if token.isascii() and token.isalpha()]


@dataclass
class Vocabulary:
    """Words ordered by descending count (ties lexicographic) with counts.

    ``total_tokens`` is the corpus token count before any frequency
    filtering, so it is at least the sum of the counts.  Word positions
    define the index space of every matrix row and column downstream.
    """

    words: list[str]
    counts: list[int]
    total_tokens: int
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.words) != len(self.counts):
            raise ValueError("words and counts differ in length")
        check_setting("total_tokens", self.total_tokens, 0, integral=True)
        prev = None
        for c in self.counts:
            if type(c) is not int:  # the rule of check_setting, kept off the common path
                check_setting("count", c, 1, integral=True)
            if c < 1:
                raise ValueError(f"count {c} is not strictly positive")
            if prev is not None and c > prev:
                raise ValueError("counts are not sorted non-increasing")
            prev = c
        if self.total_tokens < (kept := sum(self.counts)):
            raise ValueError(f"total_tokens {self.total_tokens} is below {kept}, the sum of the counts")
        self.index = {}
        for k, w in enumerate(self.words):
            if w in self.index:
                raise ValueError(f"duplicate word {w!r}")
            self.index[w] = k

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index


def count_unigrams(tokens: Iterable[str | None], min_count: int = 1) -> Vocabulary:
    """Tally a token stream and build the frequency-thresholded vocabulary."""
    check_setting("min_count", min_count, 1, integral=True)
    counts = Counter(tokens)
    counts.pop(DOC_BREAK, None)
    kept = sorted(((w, c) for w, c in counts.items() if c >= min_count),
                  key=lambda wc: (-wc[1], wc[0]))
    return Vocabulary([w for w, _ in kept], [c for _, c in kept], counts.total())


#: Largest pair count a table holds: its counts are stored as int32.
MAX_COUNT = 2**31 - 1


#: Entries that one step of a scan over every pair takes.  ``_check_csr``
#: compares that many neighbours at a time, and ``_run_starts`` gives that
#: many mask entries to each ``np.flatnonzero``, so that its int64 result
#: stays small beside the run starts it fills.
_RUN_SLICE = 1 << 18


def _check_csr(indptr, indices, counts, n: int) -> None:
    """Raise ValueError unless the arrays form a valid ordered-pair CSR over
    ``n`` words.  Every check is vectorized; the order within rows is checked
    ``_RUN_SLICE`` entries at a time, so no temporary spans the table."""
    import numpy as np
    if indptr.ndim != 1 or indices.ndim != 1 or counts.ndim != 1:
        raise ValueError("CSR arrays must be 1-d")
    if any(a.dtype.kind not in "iu" for a in (indptr, indices, counts)):
        raise ValueError("CSR arrays must hold integers")
    if len(indptr) != n + 1:
        raise ValueError(f"indptr has {len(indptr)} entries for {n} rows")
    nnz = len(indices)
    if len(counts) != nnz or indptr[0] != 0 or indptr[-1] != nnz:
        raise ValueError("indptr does not span indices and counts")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr is not monotone")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("context index out of range")
    if nnz and (counts.min() < 1 or counts.max() > MAX_COUNT):
        raise ValueError(f"count outside [1, {MAX_COUNT}]")
    for lo in range(0, nnz - 1, _RUN_SLICE):  # pairs of neighbours, a slice at a time
        hi = min(lo + _RUN_SLICE, nnz - 1)
        ascending = indices[lo + 1 : hi + 1] > indices[lo:hi]
        starts = indptr[np.searchsorted(indptr, lo + 1) : np.searchsorted(indptr, hi, "right")]
        ascending[starts - (lo + 1)] = True  # a row starts at the right neighbour
        if not ascending.all():
            raise ValueError("context indices are not sorted and unique within a row")


def _run_starts(fresh: np.ndarray) -> np.ndarray:
    """The positions of the True entries of ``fresh``, then ``fresh.size``,
    in one array: int32 unless ``fresh`` is longer than ``MAX_COUNT``.
    ``np.flatnonzero`` scans ``_RUN_SLICE`` entries a call."""
    import numpy as np
    starts = np.empty(np.count_nonzero(fresh) + 1, dtype=np.int32 if fresh.size <= MAX_COUNT else np.int64)
    at = 0
    for lo in range(0, fresh.size, _RUN_SLICE):
        found = np.flatnonzero(fresh[lo : lo + _RUN_SLICE])
        part = starts[at : at + found.size]
        part[:] = found
        part += lo
        at += found.size
    starts[-1] = fresh.size
    return starts


def _csr_from_keys(keys: np.ndarray, n: int, counts: np.ndarray | None = None):
    """CSR arrays from pair keys ``i * n + j``.  Without ``counts`` each
    key is one occurrence: ``keys`` is sorted in place, equal keys form a
    run whose length is the pair's count, and the one temporary per
    distinct pair is the run starts (see :func:`_run_starts`).  With
    ``counts`` the keys must be distinct, each with its count, and both are
    copied in key order."""
    import numpy as np
    if counts is None:
        keys.sort()
        fresh = np.empty(keys.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        starts = _run_starts(fresh)
        del fresh
        counts = np.subtract(starts[1:], starts[:-1])
        keys = keys[starts[:-1]]
        del starts
    else:
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
        del order
    if counts.size and counts.max() > MAX_COUNT:
        raise ValueError(f"a pair count exceeds {MAX_COUNT}, the largest a table holds")
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
    np.remainder(keys, max(n, 1), out=keys)
    return indptr, keys.astype(np.int32, copy=False), counts.astype(np.int32, copy=False)


@dataclass(eq=False)
class CooccurrenceTable:
    """Sparse ordered-pair counts within a token window, as one CSR.

    Row ``i`` lists the pairs led by word ``i`` (the earlier word of the
    pair): context indices ``indices[indptr[i]:indptr[i + 1]]``, strictly
    increasing, and their ``counts``, each in ``[1, MAX_COUNT]``.  Each
    in-window ordered pair is counted once, with no distance weighting.
    Storage is 8 bytes per distinct pair plus 8 per word.  ``text_sha256``
    is the hex digest of the bigram text :func:`load_bigrams` read it from,
    and None otherwise; equality ignores it.
    """

    window: int
    vocab: Vocabulary
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    total_pairs: int = field(init=False)
    text_sha256: str | None = field(init=False, default=None)

    def __post_init__(self):
        import numpy as np
        check_setting("window", self.window, 1, MAX_WINDOW, integral=True)
        indptr, indices, counts = (np.asarray(a) for a in (self.indptr, self.indices, self.counts))
        _check_csr(indptr, indices, counts, len(self.vocab))
        self.indptr = indptr.astype(np.int64, copy=False)
        self.indices = indices.astype(np.int32, copy=False)
        self.counts = counts.astype(np.int32, copy=False)
        self.total_pairs = int(self.counts.sum(dtype=np.int64))

    @classmethod
    def from_rows(cls, window: int, vocab: Vocabulary,
                  rows: dict[int, dict[int, int]]) -> "CooccurrenceTable":
        """Build a table from ``{leading index: {context index: count}}``."""
        import numpy as np
        n = len(vocab)
        lead = [i for i, row in rows.items() for _ in row]
        ctx = [j for row in rows.values() for j in row]
        counts = np.array([c for row in rows.values() for c in row.values()], dtype=np.int64)
        if any(not 0 <= k < n for k in lead + ctx):
            raise ValueError("pair index out of range")
        if counts.size and counts.min() < 1:
            raise ValueError("counts must be strictly positive")
        keys = np.array(lead, dtype=np.int64) * n + np.array(ctx, dtype=np.int64)
        return cls(window, vocab, *_csr_from_keys(keys, n, counts))

    def __eq__(self, other):
        import numpy as np
        if not isinstance(other, CooccurrenceTable):
            return NotImplemented
        return (
            self.window == other.window
            and self.vocab == other.vocab
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.counts, other.counts)
        )

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(leading index, context index, count)`` in row order."""
        import numpy as np
        leading = np.repeat(np.arange(len(self.vocab)), np.diff(self.indptr))
        return zip(leading.tolist(), self.indices.tolist(), self.counts.tolist())


def count_bigrams(
    tokens: Iterable[str | None], vocab: Vocabulary, window: int
) -> CooccurrenceTable:
    """Count ordered in-vocabulary pairs within ``window`` raw positions.

    Offsets are measured over the raw stream, so out-of-vocabulary tokens
    still occupy positions.  A DOC_BREAK clears the window.  Pairs are formed
    one offset at a time over the whole stream, and a running count of
    document breaks masks the pairs that would cross one.
    """
    import numpy as np
    check_setting("window", window, 1, MAX_WINDOW, integral=True)
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    n = len(vocab)
    lookup = dict(vocab.index)
    lookup[DOC_BREAK] = -2
    stream = np.fromiter(map(lookup.get, tokens, repeat(-1)), dtype=np.int32)
    breaks = stream == -2
    doc = np.cumsum(breaks, dtype=np.int32)[~breaks]
    ids = stream[~breaks]
    del lookup, stream, breaks
    known = ids >= 0
    offsets = range(1, min(window, len(ids)) + 1)

    def pairable(k: int) -> np.ndarray:
        ok = known[:-k] & known[k:]
        ok &= doc[:-k] == doc[k:]
        return ok

    # one offset's mask at a time: a counting pass sizes the keys, a filling
    # pass writes them; keys are i * n + j, in int32 whenever every key fits
    sizes = [int(np.count_nonzero(pairable(k))) for k in offsets]
    keys = np.empty(sum(sizes), dtype=np.int32 if n * n <= MAX_COUNT else np.int64)
    at = 0
    for k, size in zip(offsets, sizes):
        ok = pairable(k)
        part = keys[at : at + size]
        np.multiply(ids[:-k][ok], n, out=part, dtype=keys.dtype)
        part += ids[k:][ok]
        at += size
        del ok, part  # a view of the keys
    del ids, doc, known
    csr = _csr_from_keys(keys, n)
    del keys  # before the table's checks run
    return CooccurrenceTable(window, vocab, *csr)


def save_unigrams(vocab: Vocabulary, path) -> None:
    """Write ``#total N`` then ``word<TAB>count`` per word, descending count."""
    with atomic_write(path) as fh:
        fh.write(f"#total {vocab.total_tokens}\n")
        for w, c in zip(vocab.words, vocab.counts):
            fh.write(f"{w}\t{c}\n")


def load_unigrams(path) -> Vocabulary:
    """Read a unigram count file back into a Vocabulary."""
    words: list[str] = []
    counts: list[int] = []
    seen: set[str] = set()
    with open_utf8(path) as fh:
        header = fh.readline()
        if not header.startswith("#total "):
            raise ParseError(path, 1, "expected '#total <N>' header")
        try:
            total = int(header[len("#total "):])
        except ValueError:
            raise ParseError(path, 1, "total token count is not an integer") from None
        if total < 0:
            raise ParseError(path, 1, "total token count is negative")
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(path, line_no, "expected 'word<TAB>count'")
            word, count_text = parts
            if word.split() != [word]:
                raise ParseError(path, line_no, f"word {word!r} is empty or holds whitespace")
            try:
                count = int(count_text)
            except ValueError:
                raise ParseError(path, line_no, f"count {count_text!r} is not an integer") from None
            if count < 1:
                raise ParseError(path, line_no, f"count {count} is not strictly positive")
            if word in seen:
                raise ParseError(path, line_no, f"duplicate word {word!r}")
            if counts and count > counts[-1]:
                raise ParseError(path, line_no, "counts are not sorted non-increasing")
            seen.add(word)
            words.append(word)
            counts.append(count)
    if total < (kept := sum(counts)):  # after the whole file: a bad byte below is reported first
        raise ParseError(path, 1, f"total token count {total} is below {kept}, the sum of the word counts")
    return Vocabulary(words, counts, total)


#: Pairs formatted per write when saving a bigram file; bounds its memory.  At
#: 2**15 pairs the writer's transient arrays raised the stage's peak RSS by
#: over 3 MB on 100k tokens; at 2**13 they stay under the counting peak.
_WRITE_PAIRS = 1 << 13
#: Counts below this are written from a table of their text, built per save.
_COUNT_TEXTS = 1 << 12


def save_bigrams(table: CooccurrenceTable, path) -> None:
    """Write ``#window w`` then, per leading word in vocabulary order, one
    ``word<TAB>row_total`` record followed by ``<TAB>context:count`` lines
    with contexts in descending count, ties in ascending context index.

    Lines are assembled from byte pieces made once per call, each word's
    ``<TAB>context:`` prefix and the text of each small count, gathered by
    index for whole rows of about ``_WRITE_PAIRS`` pairs at a time.  Also
    writes the binary companion ``<path>.csr`` that :func:`load_bigrams`
    reads instead of parsing this text.
    """
    import numpy as np
    ptr = table.indptr
    names = [w.encode("utf-8") for w in table.vocab.words]
    prefixes = np.array([b"\t" + name + b":" for name in names], dtype=object)
    top = int(table.counts.max(initial=0))
    count_texts = np.array([b"%d\n" % c for c in range(min(top + 1, _COUNT_TEXTS))], dtype=object)
    text_digest = sha256()
    with atomic_write(path, binary=True) as fh:

        def write(data: bytes) -> None:
            text_digest.update(data)
            fh.write(data)

        write(b"#window %d\n" % table.window)
        start = 0
        while start < len(names):
            # whole rows, about _WRITE_PAIRS pairs at a time
            stop = max(start + 1, int(np.searchsorted(ptr, ptr[start] + _WRITE_PAIRS, "right")) - 1)
            lo, hi = ptr[start], ptr[stop]
            lengths = np.diff(ptr[start : stop + 1])
            lead = np.repeat(np.arange(start, stop, dtype=np.int64), lengths)
            # by row, then descending count; the sort is stable, so ties keep ascending context
            order = np.argsort((lead << 31) | (MAX_COUNT - table.counts[lo:hi]), kind="stable")
            counts = table.counts[lo:hi][order]
            # one line per pair: its context's prefix, then its count's text
            pieces = np.empty((counts.size, 2), dtype=object)
            pieces[:, 0] = prefixes[table.indices[lo:hi][order]]
            large = counts >= count_texts.size
            pieces[:, 1] = count_texts[np.where(large, 0, counts)]
            pieces[large, 1] = [b"%d\n" % c for c in counts[large].tolist()]
            # each row's record goes before its first line
            rows = np.flatnonzero(lengths)
            firsts = ptr[start + rows] - lo
            totals = np.add.reduceat(counts, firsts, dtype=np.int64)
            pieces[firsts, 0] = [b"%s\t%d\n%s" % (names[start + i], total, prefix) for i, total, prefix
                                 in zip(rows.tolist(), totals.tolist(), pieces[firsts, 0].tolist())]
            write(b"".join(pieces.ravel().tolist()))
            start = stop
    _save_companion(table, companion_path(path), text_digest.digest())


# Binary companion of a bigram text file, all integers little-endian:
#   magic (8 bytes) | window, rows, nnz (uint64 each)
#   | SHA-256 of the bigram text | SHA-256 of the vocabulary word list
#   | indptr (int64 x rows+1) | indices (int32 x nnz) | counts (int32 x nnz)
#   | CRC-32 of every byte before it (uint32)
_CSR_MAGIC = b"PMVCSR01"
_CSR_HEAD = struct.Struct("<8sQQQ32s32s")
_CSR_CHECK = struct.Struct("<I")


def companion_path(path) -> str:
    """Where the binary companion of the bigram file ``path`` lives."""
    return os.fspath(path) + ".csr"


def _words_digest(vocab: Vocabulary) -> bytes:
    return sha256("\n".join(vocab.words).encode("utf-8")).digest()


def _save_companion(table: CooccurrenceTable, path: str, text_digest: bytes) -> None:
    """Write the companion with deterministic bytes; arrays are streamed
    straight from the table, never concatenated."""
    import numpy as np
    head = _CSR_HEAD.pack(_CSR_MAGIC, table.window, len(table.vocab), len(table.indices),
                          text_digest, _words_digest(table.vocab))
    check = 0
    with atomic_write(path, binary=True) as fh:
        for part in (head, *(memoryview(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")))
                             for a in (table.indptr, table.indices, table.counts))):
            check = zlib.crc32(part, check)
            fh.write(part)
        fh.write(_CSR_CHECK.pack(check))


def _load_companion(path, vocab: Vocabulary, text_digest: bytes) -> CooccurrenceTable | None:
    """The table stored in the companion of ``path``, whose text has the
    SHA-256 ``text_digest``, or None when the companion is missing,
    unreadable, damaged, or was written for another text or vocabulary."""
    import numpy as np
    try:
        with open(companion_path(path), "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    if len(blob) < _CSR_HEAD.size + _CSR_CHECK.size:
        return None
    magic, window, rows, nnz, text_seen, words_seen = _CSR_HEAD.unpack_from(blob)
    (check,) = _CSR_CHECK.unpack_from(blob, len(blob) - _CSR_CHECK.size)
    if (magic != _CSR_MAGIC or rows != len(vocab)
            or len(blob) != _CSR_HEAD.size + 8 * (rows + 1) + 8 * nnz + _CSR_CHECK.size
            or text_seen != text_digest or words_seen != _words_digest(vocab)
            or zlib.crc32(memoryview(blob)[: -_CSR_CHECK.size]) != check):
        return None
    offset = _CSR_HEAD.size
    indptr = np.frombuffer(blob, dtype="<i8", count=rows + 1, offset=offset)
    offset += indptr.nbytes
    indices = np.frombuffer(blob, dtype="<i4", count=nnz, offset=offset)
    counts = np.frombuffer(blob, dtype="<i4", count=nnz, offset=offset + indices.nbytes)
    try:
        return CooccurrenceTable(window, vocab, indptr, indices, counts)
    except ValueError:
        return None


def load_bigrams(path, vocab: Vocabulary) -> CooccurrenceTable:
    """Read a bigram count file back into a table over ``vocab``.

    The companion ``<path>.csr`` is used when it was written with exactly
    this text and this vocabulary word list and passes the table's structure
    checks; in every other case the text is parsed.  Either way the result,
    and any :class:`ParseError`, are the same.  The text is hashed once, and
    the table keeps the digest as ``text_sha256``.
    """
    text_sha256 = file_sha256(path)
    table = _load_companion(path, vocab, bytes.fromhex(text_sha256))
    if table is None:
        table = _parse_bigrams(path, vocab)
    table.text_sha256 = text_sha256
    return table


def _parse_bigrams(path, vocab: Vocabulary) -> CooccurrenceTable:
    import numpy as np
    n = len(vocab)
    keys = array("q")
    counts = array("i")  # each count is checked to lie in [1, MAX_COUNT]
    seen_rows: set[int] = set()
    current: set[int] | None = None
    lead_key = 0
    claimed_total = 0
    line_no = 1
    with open_utf8(path) as fh:
        header = fh.readline()
        if not header.startswith("#window "):
            raise ParseError(path, 1, "expected '#window <w>' header")
        try:
            window = int(header[len("#window "):])
        except ValueError:
            raise ParseError(path, 1, "window is not an integer") from None
        try:
            check_setting("window", window, 1, MAX_WINDOW, integral=True)
        except ValueError as exc:
            raise ParseError(path, 1, str(exc)) from None
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("\t"):
                if current is None:
                    raise ParseError(path, line_no, "context line before any record")
                context_text, _, count_text = line[1:].rpartition(":")
                if not context_text:
                    raise ParseError(path, line_no, "expected '<TAB>context:count'")
                j = vocab.index.get(context_text)
                if j is None:
                    raise ParseError(path, line_no, f"unknown context word {context_text!r}")
                try:
                    c = int(count_text)
                except ValueError:
                    raise ParseError(path, line_no, f"count {count_text!r} is not an integer") from None
                if not 1 <= c <= MAX_COUNT:
                    raise ParseError(path, line_no, f"count {c} is outside [1, {MAX_COUNT}]")
                if j in current:
                    raise ParseError(path, line_no, f"duplicate context {context_text!r}")
                current.add(j)
                keys.append(lead_key + j)
                counts.append(c)
                claimed_total -= c
            else:
                if current is not None and claimed_total != 0:
                    raise ParseError(path, line_no, "row total does not match its context counts")
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError(path, line_no, "expected 'word<TAB>row_total'")
                word, total_text = parts
                i = vocab.index.get(word)
                if i is None:
                    raise ParseError(path, line_no, f"unknown word {word!r}")
                if i in seen_rows:
                    raise ParseError(path, line_no, f"duplicate word {word!r}")
                try:
                    claimed_total = int(total_text)
                except ValueError:
                    raise ParseError(path, line_no, f"row total {total_text!r} is not an integer") from None
                seen_rows.add(i)
                current = set()
                lead_key = i * n
    if current is not None and claimed_total != 0:
        raise ParseError(path, line_no + 1, "row total does not match its context counts")
    keys, counts = np.frombuffer(keys, dtype=np.int64), np.frombuffer(counts, dtype=np.intc)
    return CooccurrenceTable(window, vocab, *_csr_from_keys(keys, n, counts))
