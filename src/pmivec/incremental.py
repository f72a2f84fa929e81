"""Closed-form extension of solved core embeddings to further words.

The core words are solved jointly; every later word is fit independently
against the fixed core vectors by weighted ridge regression.  The penalty
covers both the word-versus-core and core-versus-word blocks, which under
symmetrized statistics are transposes of each other, so they fold into a
factor 2 on the weighted least squares.  Blocks between two non-core words
are never touched: they are too sparse to be worth fitting.

Per word this costs O(c d^2 + d^3) time; rows are built a fixed-size batch
of words at a time, so transient memory beyond the shared core matrix is
O(batch * c + d^2) and does not grow with the vocabulary.  Each solve reads
only the shared core data and its own row, so the result for a word does
not depend on which other words are solved with it, or in what order.
"""

from __future__ import annotations

import warnings
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .ioutil import check_setting
from .statistics import BATCH_WORDS, PmiRows


class DegeneracyWarning(UserWarning):
    """An unregularized per-word system was singular; the minimum-norm
    solution was returned."""


def _solve_ridge(
    g: np.ndarray, w: np.ndarray, core_vectors: np.ndarray, mu: float
) -> tuple[np.ndarray, bool]:
    """Minimize 2 * sum_j w_j (g_j - v_j . v)^2 + mu * |v|^2 in closed form."""
    a = 2.0 * (core_vectors.T * w) @ core_vectors
    b = 2.0 * (core_vectors.T @ (w * g))
    d = core_vectors.shape[1]
    if mu:  # validated by the callers: finite and nonnegative
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
    if not np.all(w >= 0.0):
        raise ValueError("weights must be nonnegative")
    check_setting("mu", mu, 0.0)
    solution, degenerate = _solve_ridge(g, w, core_vectors, mu)
    if degenerate:
        warnings.warn(
            "singular normal matrix at mu = 0; returning the minimum-norm solution",
            DegeneracyWarning,
            stacklevel=2,
        )
    return solution


def solve_words(
    core_vectors: np.ndarray, rows_of: PmiRows, word_indices: Iterable[int], mu: float
) -> Iterator[tuple[int, np.ndarray, bool]]:
    """Stream (word index, vector, degenerate flag) for each requested word.

    Rows are built for ``BATCH_WORDS`` words at a time and discarded once
    their vectors are out, so transient memory stays O(BATCH_WORDS * c).
    The columns of ``rows_of`` are the regression columns, aligned with the
    rows of ``core_vectors``, and its normalizer is the core solve's.
    """
    check_setting("mu", mu, 0.0)
    words = iter(word_indices)
    while batch := list(islice(words, BATCH_WORDS)):
        g, w = rows_of(batch)
        for k, i in enumerate(batch):
            vector, degenerate = _solve_ridge(g[k], w[k], core_vectors, mu)
            yield int(i), vector, degenerate
