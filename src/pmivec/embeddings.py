"""Embedding container plus word2vec-compatible text persistence."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .ioutil import ParseError, atomic_write, open_utf8


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


def save_vec(emb: EmbeddingSet, path) -> None:
    """Write ``n d`` then one ``word f1 .. fd`` record per word.

    Floats carry 6 significant digits, which keeps relative quantization
    error below 5e-7, comfortably inside the error budget of downstream
    cosine computations.
    """
    template = "%s " + " ".join(["%.6g"] * emb.dim) + "\n"
    with atomic_write(path) as fh:
        fh.write(f"{len(emb)} {emb.dim}\n")
        for word, vec in zip(emb.words, emb.vectors):
            fh.write(template % (word, *vec.tolist()))


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
