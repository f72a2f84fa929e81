"""Smoothed pair probabilities and the PMI / fit-weight blocks built from them.

One :class:`PmiConfig` (``lam``, ``alpha``, ``cap``) fixes the model, and
unigram probabilities come from the table's vocabulary.  Blocks follow the
frequency order of the vocabulary: the columns are its first c words, and
the rows any run of consecutive words.  :class:`PmiRows` builds such rows,
:func:`pmi_block` the dense block of two ranges with the weights divided by
their maximum, the normalizer.  Growth rows take the normalizer of the core
block, as the core solve recorded it.  A :class:`PmiRows` copies what its
rows are built from, the counts whose context is one of the c column words
and the first c rows' counts indexed by context, and keeps no reference to
the table, so growth holds no more of the counts than that while it solves.

Pair counts are symmetrized before use, so every block is exactly symmetric
under transposition of its index ranges.  Entries with zero smoothed
probability mass get PMI 0 and weight 0; a zero weight makes the PMI value
inert in the downstream weighted fits, so any finite placeholder would do.

A dense block is built in the memory of its two outputs: the gathered
counts become the probabilities and then the weights, the unigram products
become the PMI.
"""

from __future__ import annotations

import numpy as np

from .corpus import CooccurrenceTable, Vocabulary
from .ioutil import check_setting
from .settings import PmiConfig

#: Entries of the smoothing step's temporary, which takes whole rows.
_SMOOTH_CHUNK = 1 << 16


def unigram_probs(vocab: Vocabulary) -> np.ndarray:
    """Per-word probability: each count over the total of kept counts."""
    counts = np.asarray(vocab.counts, dtype=float)
    return counts / counts.sum()


def _smoothed(counts: np.ndarray, indep: np.ndarray, total_pairs: int,
              cfg: PmiConfig) -> np.ndarray:
    """Interpolated pair probability from symmetrized counts, written over
    the counts with the roundings of ``(1 - lam) * emp + lam * indep``,
    adding ``lam * indep`` a few rows at a time."""
    counts /= 2.0 * total_pairs
    counts *= 1.0 - cfg.lam
    step = max(1, _SMOOTH_CHUNK // max(counts.shape[1], 1))
    for k in range(0, len(counts), step):
        counts[k:k + step] += cfg.lam * indep[k:k + step]
    return counts


def _fit_weights(p: np.ndarray, cfg: PmiConfig) -> np.ndarray:
    """``min(p, cap) ** alpha`` written over the probabilities.  They are
    never negative, so entries without probability mass get weight 0."""
    if cfg.cap is not None:
        np.minimum(p, cfg.cap, out=p)
    p **= cfg.alpha  # the operator, not np.power: it has the sqrt fast path of ``p**alpha``
    return p


def word_range(words, n: int, label: str) -> range:
    """``words`` if it is a step-1 range inside the ``n`` vocabulary words,
    else a ``ValueError`` naming it."""
    if not (isinstance(words, range) and words.step == 1 and 0 <= words.start <= words.stop <= n):
        raise ValueError(f"{label} must be a step-1 range inside the {n} vocabulary words, not {words!r}")
    return words


def _entries(indptr: np.ndarray, rows: range) -> tuple[np.ndarray, slice]:
    """(position in ``rows``, slice of entries) of the CSR rows ``rows``."""
    span = indptr[rows.start:rows.stop + 1]
    return np.repeat(np.arange(len(rows), dtype=np.int32), np.diff(span)), slice(span[0], span[-1])


def _prefix_ends(indptr: np.ndarray, indices: np.ndarray, c: int) -> np.ndarray:
    """Per CSR row, the end of its entries with context below ``c``: contexts
    ascend within a row, so those form a prefix.  Every row's end moves by
    halving powers of two at once, in O(rows) memory."""
    ends, stop = indptr[:-1].copy(), indptr[1:]
    last = max(len(indices) - 1, 0)
    step = 1 << int(np.diff(indptr).max(initial=0)).bit_length()  # the steps sum past any row
    while step > 1:
        step >>= 1
        probe = ends + (step - 1)  # the last entry a step would cover
        below = probe < stop
        np.minimum(probe, last, out=probe)
        below &= indices[probe] < c
        np.add(ends, step, out=ends, where=below)
    return ends


class PmiRows:
    """PMI and fit-weight rows of consecutive words against the first c words.

    Each entry comes from the symmetrized count c(i, j) + c(j, i) of the
    table.  Construction copies the two parts of it that rows are built
    from, and keeps no reference to the table:

    - the forward counts c(i, j) with j below c, a prefix of row ``i``
      since contexts ascend: 8 bytes per such entry plus 8 per word;
    - the reverse counts c(j, i), the first c rows indexed by context:
      8 bytes per entry of those rows plus 8 per word.

    A call then costs the kept entries of the requested rows plus one dense
    row per word.  ``normalizer``, in (0, 1], divides the weights: growth
    passes the core block's, which ``pmi_block`` returns and
    ``factorize-core`` records.  ``cols`` is ``range(c)``, or an integer
    array equal to it; requested rows are a step-1 range.
    """

    def __init__(self, cols, table: CooccurrenceTable, cfg: PmiConfig, normalizer: float = 1.0):
        if table.total_pairs == 0:
            raise ValueError("table holds no pairs")
        self.n = n = len(table.vocab)
        self.total_pairs, self.cfg = table.total_pairs, cfg
        self.normalizer = check_setting("normalizer", normalizer, 0.0, 1.0, above=True)
        first = np.asarray(cols)
        if (first.ndim != 1 or first.dtype.kind not in "iu" or first.size > n
                or not np.array_equal(first, np.arange(first.size))):
            raise ValueError(f"columns must be the first c of the {n} vocabulary words, "
                             f"range(c), not {cols!r}")
        self.c = c = first.size
        self.probs = unigram_probs(table.vocab)
        ctx = table.indices[:table.indptr[c]]
        order = np.argsort(ctx)
        self.rev_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ctx, minlength=n), out=self.rev_indptr[1:])
        self.rev_pos = _entries(table.indptr, range(c))[0][order]
        self.rev_counts = table.counts[:len(ctx)][order]
        del order
        self.fwd_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(_prefix_ends(table.indptr, table.indices, c) - table.indptr[:-1],
                  out=self.fwd_indptr[1:])
        core = table.indices < c  # one byte per entry: the only temporary that spans the table
        self.fwd_ctx, self.fwd_counts = table.indices[core], table.counts[core]

    def _gather(self, rows: range) -> np.ndarray:
        """Symmetrized counts, one row per word of ``rows``, as floats."""
        out = np.zeros((len(rows), self.c))
        owner, at = _entries(self.fwd_indptr, rows)
        out[owner, self.fwd_ctx[at]] = self.fwd_counts[at]
        owner, at = _entries(self.rev_indptr, rows)
        out[owner, self.rev_pos[at]] += self.rev_counts[at]
        return out

    def __call__(self, rows: range) -> tuple[np.ndarray, np.ndarray]:
        """PMI and weight rows of the words ``rows``; unseen pairs keep
        weight 0 under lam = 0."""
        rows = word_range(rows, self.n, "rows")
        # two dense buffers: the counts become p, then the weights; the
        # unigram products become p / indep, then the PMI
        pmi = np.outer(self.probs[rows.start:rows.stop], self.probs[:self.c])
        p = _smoothed(self._gather(rows), pmi, self.total_pairs, self.cfg)
        mask = p > 0.0
        np.divide(p, pmi, out=pmi)  # p is 0 off the mask and the products never are
        np.log(pmi, out=pmi, where=mask)
        weights = _fit_weights(p, self.cfg)
        weights /= self.normalizer  # exact when it is 1.0
        return pmi, weights


def pmi_block(
    row_range: range, col_range: range, table: CooccurrenceTable, cfg: PmiConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """PMI block, fit-weight block and weight normalizer of the step-1 range
    ``row_range`` against the first words, ``col_range = range(c)``.

    The weights are divided by their block maximum, the normalizer, or by
    1.0 when no weight is positive.  A weight is a power of a probability,
    so the normalizer lies in (0, 1]; growth rows reuse the core block's so
    that weights stay on one scale across an entire factorization run.
    """
    pmi, weights = PmiRows(col_range, table, cfg)(row_range)
    normalizer = float(weights.max(initial=0.0)) or 1.0  # weights are never negative
    weights /= normalizer
    return pmi, weights, normalizer
