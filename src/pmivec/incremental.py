"""Closed-form extension of solved core embeddings to further words.

The core words are solved jointly; every later word is fit independently
against the fixed core vectors by weighted ridge regression.  The penalty
covers both the word-versus-core and core-versus-word blocks, which under
symmetrized statistics are transposes of each other, so they fold into a
factor 2 on the weighted least squares.  Blocks between two non-core words
are never touched: they are too sparse to be worth fitting.

Words are solved in groups of at most 64.  Word ``i`` takes row ``i % 64``
of two fixed-shape products: its weights times a packed table of the core
vectors' pairwise products ``2 v_j[a] v_j[b]`` (a <= b) give the upper
triangle of its normal matrix, its weighted row times the doubled core
vectors its right-hand side.  The normal matrices are then solved 16 at a
time by one stacked LAPACK call.  BLAS rounds a product's row by the
product's shape and the row's position only, so a word's vector depends on
its own data alone, not on which other words are solved with it.

Per call the packed table costs O(c d^2) time and 8 c d (d + 1) / 2 bytes
(1 MB at c = 100, d = 50; 7.1 MB at c = 700).  Per group the two products
cost O(64 c d^2) time however many words it holds, and every stack of 16 rows
that holds a word one O(16 d^3) solve.  A group's rows and buffers take
O(64 (c + d^2)) memory, which does not grow with the vocabulary.  The rows
come from a :class:`~pmivec.statistics.PmiRows`, which holds the core
columns of the counts rather than the table, and vectors are yielded a group
at a time, so a caller that writes them as they come holds no row per word.
"""

from __future__ import annotations

import warnings
from typing import Iterator

import numpy as np

from .ioutil import check_setting
from .statistics import PmiRows, word_range

#: Rows of every group product: word i sits at row i % _GROUP.
_GROUP = 64
#: Normal matrices assembled and solved by one stacked call.
_STACK = 16


class DegeneracyWarning(UserWarning):
    """An unregularized per-word system was singular; the minimum-norm
    solution was returned."""


class _GroupSolver:
    """Ridge solutions of up to ``_GROUP`` words, each at its own row, against
    fixed core vectors; every buffer is allocated once."""

    def __init__(self, core_vectors: np.ndarray, mu: float):
        c, d = core_vectors.shape
        self.mu, self.dim = mu, d
        self.twice = 2.0 * core_vectors  # the factor 2 is exact in both products
        self.packed = np.empty((c, d * (d + 1) // 2))
        rows, cols = np.triu_indices(d)
        sym = np.empty((d, d), dtype=np.intp)  # packed column of every cell
        sym[rows, cols] = sym[cols, rows] = np.arange(rows.size)
        self.sym = sym.ravel()
        off = 0
        for a in range(d):  # block by block: no c x d(d+1)/2 temporaries
            np.multiply(self.twice[:, a, None], core_vectors[:, a:],
                        out=self.packed[:, off:off + d - a])
            off += d - a
        self.weights = np.zeros((_GROUP, c))
        self.weighted = np.zeros((_GROUP, c))
        self.upper = np.empty((_GROUP, self.packed.shape[1]))
        self.rhs = np.empty((_GROUP, d))
        self.normal = np.empty((_STACK, d, d))

    def __call__(self, slots: np.ndarray, g: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solutions (one row per slot of a group) and degenerate flags of the
        words whose PMI and weight rows ``g`` and ``w`` sit at the distinct
        rows ``slots``; the other rows are zero."""
        d = self.dim
        self.weights.fill(0.0)
        self.weighted.fill(0.0)
        self.weights[slots] = w
        self.weighted[slots] = w * g
        np.matmul(self.weights, self.packed, out=self.upper)
        np.matmul(self.weighted, self.twice, out=self.rhs)
        solved = np.zeros((_GROUP, d))  # a new array per group: callers keep views of its rows
        degenerate = np.zeros(_GROUP, dtype=bool)
        cells = self.normal.reshape(_STACK, d * d)
        for q in range(0, _GROUP, _STACK):
            used = slots[(slots >= q) & (slots < q + _STACK)]
            if not used.size:
                continue
            np.take(self.upper[q:q + _STACK], self.sym, axis=1, out=cells, mode="clip")
            if self.mu:  # validated by the callers: finite and nonnegative
                cells[:, ::d + 1] += self.mu  # an empty row solves mu I x = 0
                solved[q:q + _STACK] = np.linalg.solve(self.normal, self.rhs[q:q + _STACK, :, None])[..., 0]
                continue
            for r in used:  # mu = 0: a singular system takes the minimum-norm answer
                solved[r], _, rank, _ = np.linalg.lstsq(self.normal[r - q], self.rhs[r], rcond=None)
                degenerate[r] = rank < d
        return solved, degenerate


def solve_noncore_word(
    g: np.ndarray, w: np.ndarray, core_vectors: np.ndarray, mu: float
) -> np.ndarray:
    """Closed-form embedding of one word from its PMI/weight row vs the core,
    minimizing 2 * sum_j w_j (g_j - v_j . v)^2 + mu * |v|^2.

    Solves the word's own normal system (2V)^T diag(w) V v + mu v = (2V)^T (w g)
    in O(c d^2), apart from the group kernel of :func:`solve_words`: the
    tests hold that kernel to it.  With mu = 0 and a singular normal matrix
    the minimum-norm solution is returned and a DegeneracyWarning is issued.
    """
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    core_vectors = np.asarray(core_vectors, dtype=float)
    if g.shape != w.shape or g.ndim != 1 or core_vectors.shape[0] != g.shape[0]:
        raise ValueError("row, weights and core vectors must be conformable")
    if not np.all(w >= 0.0):
        raise ValueError("weights must be nonnegative")
    check_setting("mu", mu, 0.0)
    twice = 2.0 * core_vectors
    normal = twice.T @ (w[:, None] * core_vectors) + mu * np.eye(core_vectors.shape[1])
    rhs = twice.T @ (w * g)
    if mu:
        return np.linalg.solve(normal, rhs)
    solved, _, rank, _ = np.linalg.lstsq(normal, rhs, rcond=None)
    if rank < normal.shape[0]:
        warnings.warn(
            "singular normal matrix at mu = 0; returning the minimum-norm solution",
            DegeneracyWarning,
            stacklevel=2,
        )
    return solved


def solve_words(
    core_vectors: np.ndarray, rows_of: PmiRows, word_indices: range, mu: float
) -> Iterator[tuple[int, np.ndarray, bool]]:
    """Stream (word index, vector, degenerate flag) for each word of the
    step-1 range ``word_indices``, in order.

    Rows are built for 64 words at a time, from the start of the range, and
    discarded once their vectors are out.  The columns of ``rows_of`` are the
    regression columns, aligned with the rows of ``core_vectors``, and its
    normalizer is the core solve's.
    """
    check_setting("mu", mu, 0.0)
    words = word_range(word_indices, rows_of.n, "words")
    solve = _GroupSolver(np.asarray(core_vectors, dtype=float), mu)
    for k in range(0, len(words), _GROUP):
        group = words[k:k + _GROUP]
        g, w = rows_of(group)
        slots = np.arange(group.start, group.stop) % _GROUP
        solved, degenerate = solve(slots, g, w)
        for i, slot in zip(group, slots):
            yield i, solved[slot], bool(degenerate[slot])
