"""Smoothed pair probabilities and the PMI / fit-weight blocks built from them.

One :class:`PmiConfig` (``lam``, ``alpha``, ``cap``) fixes the model, and
unigram probabilities come from the table's vocabulary.  :class:`PmiRows`
builds the rows of any words against one column set, :func:`pmi_block` the
dense block of two ranges with the weights divided by their maximum, the
normalizer.  Growth rows share the normalizer of their columns' own block.

Pair counts are symmetrized before use, so every block is exactly symmetric
under transposition of its index ranges.  Entries with zero smoothed
probability mass get PMI 0 and weight 0; a zero weight makes the PMI value
inert in the downstream weighted fits, so any finite placeholder would do.

A dense block is built in the memory of its two outputs: the gathered
counts become the probabilities and then the weights, the unigram products
become the PMI.  The smoothing step adds one temporary of the same size, so
an r x c block peaks at three r x c float64 arrays beyond the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CooccurrenceTable, Vocabulary

#: Words whose PMI and weight rows are built together.
BATCH_WORDS = 256


@dataclass(frozen=True)
class PmiConfig:
    """Jelinek-Mercer weight ``lam`` between the empirical pair probability
    (weight 1 - lam) and the unigram product (weight lam); a pair probability
    p has fit weight min(p, cap) ** alpha, divided by the core block maximum."""

    lam: float = 0.1
    alpha: float = 0.5
    cap: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.cap is not None and self.cap <= 0.0:
            raise ValueError("cap must be positive when present")


def unigram_probs(vocab: Vocabulary) -> np.ndarray:
    """Per-word probability: each count over the total of kept counts."""
    counts = np.asarray(vocab.counts, dtype=float)
    return counts / counts.sum()


def weight_transform(p, cfg: PmiConfig):
    """Monotone non-decreasing map from probability to fit weight, before the normalizer."""
    return _fit_weights(np.array(p, dtype=float), cfg)


def _check_range(r: range, n: int, label: str) -> None:
    if r.step != 1 or len(r) == 0:
        raise ValueError(f"{label} must be a nonempty step-1 range")
    if r.start < 0 or r.stop > n:
        raise ValueError(f"{label} exceeds the vocabulary")


def _smoothed(counts: np.ndarray, indep: np.ndarray, total_pairs: int,
              cfg: PmiConfig) -> np.ndarray:
    """Interpolated pair probability from symmetrized counts, written over
    the counts with the roundings of ``(1 - lam) * emp + lam * indep``."""
    counts /= 2.0 * total_pairs
    counts *= 1.0 - cfg.lam
    counts += cfg.lam * indep
    return counts


def _fit_weights(p: np.ndarray, cfg: PmiConfig) -> np.ndarray:
    """``min(p, cap) ** alpha`` written over the probabilities.  They are
    never negative, so entries without probability mass get weight 0."""
    if cfg.cap is not None:
        np.minimum(p, cfg.cap, out=p)
    p **= cfg.alpha  # the operator, not np.power: it has the sqrt fast path of ``p**alpha``
    return p


def _largest_weight(blocks) -> float:
    """The largest weight in the arrays ``blocks``, or 1.0 when none is positive."""
    peak = max((float(w.max(initial=0.0)) for w in blocks), default=0.0)
    return peak if peak > 0.0 else 1.0


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in ``rows``, CSR entry index) of every entry of those rows."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), lengths)
    first = np.cumsum(lengths) - lengths
    return owner, np.arange(owner.size) + (starts - first)[owner]


class PmiRows:
    """PMI and fit-weight rows of any words against one fixed column set.

    Each entry comes from the symmetrized count c(i, j) + c(j, i), gathered
    from the table: the forward counts c(i, j) from row ``i`` through a map
    of column positions, and the reverse counts c(j, i) from the column
    words' own rows, transposed once here.  A call then costs the nonzeros
    of the requested rows plus one dense row per word.  ``normalizer``
    divides the weights; ``None`` takes the largest weight of the ``cols`` x
    ``cols`` block, built ``BATCH_WORDS`` rows at a time by this same call.
    That equals ``pmi_block``'s normalizer for those words bit for bit.
    """

    def __init__(self, cols, table: CooccurrenceTable, cfg: PmiConfig, normalizer: float | None = 1.0):
        if table.total_pairs == 0:
            raise ValueError("table holds no pairs")
        n = len(table.vocab)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.table, self.cfg, self.normalizer = table, cfg, 1.0
        self.probs = unigram_probs(table.vocab)
        self.col_pos = np.full(n, -1, dtype=np.int64)
        self.col_pos[self.cols] = np.arange(len(self.cols))
        owner, at = _row_entries(table.indptr, self.cols)
        ctx = table.indices[at]
        order = np.argsort(ctx)
        self.rev_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ctx, minlength=n), out=self.rev_indptr[1:])
        self.rev_pos = owner[order]
        self.rev_counts = table.counts[at[order]]
        del owner, at, ctx, order  # the column rows' entries: free them before the batches
        if normalizer is None:
            normalizer = _largest_weight(
                self(self.cols[k:k + BATCH_WORDS])[1] for k in range(0, len(self.cols), BATCH_WORDS)
            )
        self.normalizer = normalizer

    def _gather(self, rows) -> np.ndarray:
        """Symmetrized counts, one row per word of ``rows``, as floats."""
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros((len(rows), len(self.cols)))
        owner, at = _row_entries(self.table.indptr, rows)
        k = self.col_pos[self.table.indices[at]]
        hit = k >= 0
        out[owner[hit], k[hit]] = self.table.counts[at[hit]]
        owner, at = _row_entries(self.rev_indptr, rows)
        out[owner, self.rev_pos[at]] += self.rev_counts[at]
        return out

    def __call__(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """PMI and weight rows of the words ``rows``; unseen pairs keep
        weight 0 under lam = 0."""
        # two dense buffers: the counts become p, then the weights; the
        # unigram products become p / indep, then the PMI
        pmi = np.outer(self.probs[np.asarray(rows, dtype=np.int64)], self.probs[self.cols])
        p = _smoothed(self._gather(rows), pmi, self.table.total_pairs, self.cfg)
        mask = p > 0.0
        np.divide(p, pmi, out=pmi)  # p is 0 off the mask and the products never are
        np.log(pmi, out=pmi, where=mask)
        weights = _fit_weights(p, self.cfg)
        weights /= self.normalizer  # exact when it is 1.0
        return pmi, weights


def pmi_block(
    row_range: range, col_range: range, table: CooccurrenceTable, cfg: PmiConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """PMI block, fit-weight block and weight normalizer for two index ranges.

    The weights are divided by their block maximum, the normalizer, or by
    1.0 when no weight is positive; growth rows reuse it so that weights stay
    on one scale across an entire factorization run.
    """
    n = len(table.vocab)
    _check_range(row_range, n, "row range")
    _check_range(col_range, n, "col range")
    pmi, weights = PmiRows(col_range, table, cfg)(row_range)
    normalizer = _largest_weight([weights])
    weights /= normalizer
    return pmi, weights, normalizer
