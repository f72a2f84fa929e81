"""Closed-form extension of solved core embeddings to the rest of the vocabulary.

The vocabulary is split into consecutive frequency groups; the first group
(the core) is solved jointly, and every later word is fit independently
against the fixed core vectors by weighted ridge regression.  The penalty
covers both the word-versus-core and core-versus-word blocks, which under
symmetrized statistics are transposes of each other, so they fold into a
factor 2 on the weighted least squares.  Blocks between two non-core groups
are never touched: they are too sparse to be worth fitting.

Per word this costs O(c d^2 + d^3) time; rows are built a fixed-size batch
of words at a time, so transient memory beyond the shared core matrix is
O(batch * c + d^2) and does not grow with the vocabulary.  Each solve reads
only the shared core data and its own row, which makes any parallel schedule
across words yield identical results.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Iterable, Iterator

import numpy as np

from .corpus import CooccurrenceTable, Vocabulary
from .embeddings import EmbeddingSet
from .statistics import PmiRows, SmoothingConfig, UnigramDistribution, WeightConfig

#: Words whose PMI and weight rows are built together in ``solve_words``.
BATCH_WORDS = 256


class DegeneracyWarning(UserWarning):
    """An unregularized per-word system was singular; the minimum-norm
    solution was returned."""


@dataclass(frozen=True)
class VocabPartition:
    """Consecutive index ranges over a vocabulary prefix; first range is the core."""

    groups: tuple[range, ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("partition needs at least the core group")
        expected_start = 0
        for r in self.groups:
            if r.step != 1 or len(r) == 0:
                raise ValueError("groups must be nonempty step-1 ranges")
            if r.start != expected_start:
                raise ValueError("groups must be consecutive and start at 0")
            expected_start = r.stop

    @property
    def core(self) -> range:
        return self.groups[0]

    @property
    def noncore(self) -> tuple[range, ...]:
        return self.groups[1:]


@dataclass(frozen=True)
class MuSchedule:
    """One ridge coefficient per non-core group, non-decreasing so rarer
    words get at least as much shrinkage."""

    values: tuple[float, ...]

    def __post_init__(self):
        previous = 0.0
        for mu in self.values:
            if mu < 0.0:
                raise ValueError("mu must be nonnegative")
            if mu < previous:
                raise ValueError("mu values must be non-decreasing across groups")
            previous = mu


def partition_vocabulary(
    vocab: Vocabulary,
    core_size: int,
    group_sizes: Iterable[int],
    dim: int | None = None,
) -> VocabPartition:
    """Split the vocabulary prefix into the core plus non-core groups."""
    group_sizes = list(group_sizes)
    if core_size < 1:
        raise ValueError("core_size must be at least 1")
    if dim is not None and core_size < dim:
        raise ValueError(f"core_size {core_size} is below the embedding dimension {dim}")
    if any(s < 1 for s in group_sizes):
        raise ValueError("group sizes must be at least 1")
    if core_size + sum(group_sizes) > len(vocab):
        raise ValueError("partition exceeds the vocabulary")
    bounds = [0, core_size]
    for s in group_sizes:
        bounds.append(bounds[-1] + s)
    return VocabPartition(tuple(range(a, b) for a, b in zip(bounds, bounds[1:])))


def _solve_ridge(
    g: np.ndarray, w: np.ndarray, core_vectors: np.ndarray, mu: float
) -> tuple[np.ndarray, bool]:
    """Minimize 2 * sum_j w_j (g_j - v_j . v)^2 + mu * |v|^2 in closed form."""
    a = 2.0 * (core_vectors.T * w) @ core_vectors
    b = 2.0 * (core_vectors.T @ (w * g))
    d = core_vectors.shape[1]
    if mu > 0.0:
        return np.linalg.solve(a + mu * np.eye(d), b), False
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return solution, rank < d


def solve_noncore_word(
    g: np.ndarray, w: np.ndarray, core_vectors: np.ndarray, mu: float
) -> np.ndarray:
    """Closed-form embedding of one word from its PMI/weight row vs the core.

    With mu = 0 and a singular normal matrix the minimum-norm solution is
    returned and a DegeneracyWarning is issued.
    """
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    core_vectors = np.asarray(core_vectors, dtype=float)
    if g.shape != w.shape or g.ndim != 1 or core_vectors.shape[0] != g.shape[0]:
        raise ValueError("row, weights and core vectors must be conformable")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    solution, degenerate = _solve_ridge(g, w, core_vectors, mu)
    if degenerate:
        warnings.warn(
            "singular normal matrix at mu = 0; returning the minimum-norm solution",
            DegeneracyWarning,
            stacklevel=2,
        )
    return solution


def solve_words(
    core_vectors: np.ndarray,
    core_cols: np.ndarray,
    word_indices: Iterable[int],
    table: CooccurrenceTable,
    uni: UnigramDistribution,
    smoothing: SmoothingConfig,
    weighting: WeightConfig,
    mu: float,
    normalizer: float = 1.0,
    threads: int = 1,
) -> Iterator[tuple[int, np.ndarray, bool]]:
    """Stream (word index, vector, degenerate flag) for each requested word.

    Rows are built for ``BATCH_WORDS`` words at a time and discarded once
    their vectors are out, so transient memory stays O(BATCH_WORDS * c).
    ``core_cols`` holds the vocabulary indices of the regression columns,
    aligned with the rows of ``core_vectors``.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    rows_of = PmiRows(core_cols, table, uni, smoothing, weighting, normalizer)
    words = iter(word_indices)
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        while batch := list(islice(words, BATCH_WORDS)):
            g, w = rows_of(batch)
            solved = mapper(lambda k: _solve_ridge(g[k], w[k], core_vectors, mu), range(len(batch)))
            for i, (vector, degenerate) in zip(batch, solved):
                yield int(i), vector, degenerate


@dataclass
class GroupReport:
    words: int
    mu: float
    degeneracies: int
    seconds: float


@dataclass
class BlockSolveReport:
    groups: list[GroupReport]

    def format(self) -> str:
        lines = ["group  words  mu        degenerate  seconds"]
        for k, g in enumerate(self.groups, start=1):
            lines.append(
                f"{k:<5d}  {g.words:<5d}  {g.mu:<8g}  {g.degeneracies:<10d}  {g.seconds:.2f}"
            )
        return "\n".join(lines)


def block_factorize(
    core_set: EmbeddingSet,
    vocab: Vocabulary,
    table: CooccurrenceTable,
    uni: UnigramDistribution,
    smoothing: SmoothingConfig,
    weighting: WeightConfig,
    partition: VocabPartition,
    schedule: MuSchedule,
    normalizer: float = 1.0,
    threads: int = 1,
) -> tuple[EmbeddingSet, BlockSolveReport]:
    """Solve every non-core group against the fixed core embeddings.

    Returns the non-core embeddings in partition order plus a run report.
    """
    core = partition.core
    if core_set.words != vocab.words[core.start : core.stop]:
        raise ValueError("core embeddings do not match the vocabulary core range")
    if len(partition.noncore) != len(schedule.values):
        raise ValueError("schedule length must match the number of non-core groups")
    dim = core_set.dim
    core_cols = np.arange(core.start, core.stop)
    words: list[str] = []
    chunks: list[np.ndarray] = []
    reports: list[GroupReport] = []
    for group, mu in zip(partition.noncore, schedule.values):
        start = perf_counter()
        out = np.empty((len(group), dim))
        degeneracies = 0
        stream = solve_words(
            core_set.vectors, core_cols, group, table, uni,
            smoothing, weighting, mu, normalizer=normalizer, threads=threads,
        )
        for pos, (_, vector, degenerate) in enumerate(stream):
            out[pos] = vector
            degeneracies += degenerate
        words.extend(vocab.words[i] for i in group)
        chunks.append(out)
        reports.append(GroupReport(len(group), mu, degeneracies, perf_counter() - start))
    vectors = np.vstack(chunks) if chunks else np.empty((0, dim))
    return EmbeddingSet(words, vectors), BlockSolveReport(reports)


def combine(core: EmbeddingSet, noncore_sets: Iterable[EmbeddingSet]) -> EmbeddingSet:
    """Concatenate embedding sets in partition order.

    Duplicate words or a dimension mismatch raise ValueError.
    """
    words = list(core.words)
    chunks = [core.vectors]
    for s in noncore_sets:
        if s.dim != core.dim:
            raise ValueError(f"dimension mismatch: {s.dim} vs {core.dim}")
        words.extend(s.words)
        chunks.append(s.vectors)
    return EmbeddingSet(words, np.vstack(chunks))
