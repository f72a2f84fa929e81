"""Embedding container plus word2vec-compatible text persistence."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from .ioutil import ParseError, atomic_write, open_utf8, sha256


@dataclass(eq=False)
class EmbeddingSet:
    """Ordered word list with one d-dimensional row vector per word."""

    words: list[str]
    vectors: np.ndarray
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if len(self.words) != self.vectors.shape[0]:
            raise ValueError("word list and vector rows differ in length")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("vectors contain non-finite entries")
        self.index = {}
        for k, w in enumerate(self.words):
            if w.split() != [w]:  # save_vec could not write it as one field
                raise ValueError(f"word {w!r} is empty or holds whitespace")
            if w in self.index:
                raise ValueError(f"duplicate word {w!r}")
            self.index[w] = k

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index[word]]


#: Records formatted per write: one group of the growth solve.
_WRITE_ROWS = 64


def _records(words, vectors: np.ndarray) -> bytes:
    """One ``word f1 .. fd`` line per word and row of ``vectors``, as UTF-8.

    Floats carry 6 significant digits, which keeps relative quantization
    error below 5e-7, comfortably inside the error budget of downstream
    cosine computations.  A record read back and formatted again gives the
    same bytes.
    """
    template = "%s " + " ".join(["%.6g"] * vectors.shape[1]) + "\n"
    return "".join([template % (word, *vec) for word, vec in zip(words, vectors.tolist())]).encode("utf-8")


def save_vec(emb: EmbeddingSet, path) -> str:
    """Write ``n d`` then one ``word f1 .. fd`` record per word; returns the
    hex SHA-256 of the bytes written."""
    return extend_vec(path, None, None, len(emb), emb.dim, zip(emb.words, emb.vectors))


def extend_vec(path, stored, stored_sha256: str | None, count: int, dim: int,
               rows: Iterable[tuple[str, np.ndarray]]) -> str:
    """Write to ``path`` a .vec of ``count`` words of dimension ``dim``: the
    records of the .vec ``stored`` (none when it is None), copied byte for
    byte, then one record per (word, vector) of ``rows``, ``_WRITE_ROWS`` at
    a time as they come.  Returns the hex SHA-256 of the bytes written.

    Each batch of rows passes the checks of an :class:`EmbeddingSet`, and
    the copy is hashed as it is read: unless ``stored`` hashes to
    ``stored_sha256``, a ``ValueError`` is raised.  Either way nothing is
    written.
    """
    written = sha256()
    with atomic_write(path, binary=True) as out:

        def write(data: bytes) -> None:
            written.update(data)
            out.write(data)

        write(b"%d %d\n" % (count, dim))
        if stored is not None:
            read = sha256()
            with open(stored, "rb") as fh:
                read.update(fh.readline())  # its header: this file's is written above
                while block := fh.read(1 << 20):
                    read.update(block)
                    write(block)
            if read.hexdigest() != stored_sha256:
                raise ValueError(f"{stored} changed while growth ran: its SHA-256 is no longer "
                                 f"{stored_sha256}")
        rows = iter(rows)
        while batch := list(islice(rows, _WRITE_ROWS)):
            checked = EmbeddingSet([word for word, _ in batch], [vector for _, vector in batch])
            write(_records(checked.words, checked.vectors))
    return written.hexdigest()


def load_vec(path) -> EmbeddingSet:
    """Read a .vec file; raises ParseError with a line number on any defect.

    Each record's values are converted by one numpy call, which applies
    ``float`` to every field.  Finiteness is checked for all records read so
    far at once, before any later defect is reported, so the error raised is
    always the file's first defect.
    """
    with open_utf8(path) as fh:
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
        words: list[str] = []
        record_lines: list[int] = []
        seen: set[str] = set()
        # rows are appended as they come: the header is not trusted to size anything
        values = array("d")

        def non_finite() -> ParseError | None:
            finite = np.isfinite(np.frombuffer(values).reshape(-1, dim)).all(axis=1)
            if finite.all():
                return None
            k = int(np.argmin(finite))
            return ParseError(path, record_lines[k], f"non-finite value in record for {words[k]!r}")

        def defect(line_no: int, message: str) -> ParseError:
            return non_finite() or ParseError(path, line_no, message)

        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(words) == n:
                raise defect(line_no, f"more than {n} records")
            word = fields[0]
            if len(fields) != dim + 1:
                raise defect(line_no, f"record for {word!r} has {len(fields) - 1} values, expected {dim}")
            if word in seen:
                raise defect(line_no, f"duplicate word {word!r}")
            try:
                values.frombytes(np.array(fields[1:], dtype=float).tobytes())
            except ValueError:
                raise defect(line_no, f"non-numeric value in record for {word!r}") from None
            seen.add(word)
            words.append(word)
            record_lines.append(line_no)
        if len(words) != n:
            raise defect(line_no, f"header claims {n} records, found {len(words)}")
        error = non_finite()
        if error is not None:
            raise error
    return EmbeddingSet(words, np.frombuffer(values).reshape(n, dim))
