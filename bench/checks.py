"""Correctness checks computed apart from the program.

``Oracle`` counts unigrams and in-window pairs with numpy straight from the
generator's token ids, and rebuilds the model quantities from the formulas
in the README (smoothed pair probability, PMI, ``p ** alpha`` weights scaled
so the core block's maximum is 1).  Each ``check_*`` function reads one
program output and raises ``CheckError`` when it disagrees.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

# Vectors are stored with 6 significant digits (relative error < 5e-7), so
# quantities recomputed from a .vec file carry errors of that order.
RESIDUAL_RTOL = 1e-4
NORMAL_EQ_RTOL = 1e-5
# The report prints the Spearman value with 6 decimals.
SPEARMAN_ATOL = 1e-6


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Oracle:
    """Counts of one generated corpus and the model built on them."""

    def __init__(self, ids: np.ndarray, names: list[str], min_count: int, window: int,
                 lam: float = 0.1, alpha: float = 0.5):
        self.names = names
        self.n_names = len(names)
        self.lam, self.alpha = lam, alpha
        self.n_tokens = int(ids.size)
        counts = np.bincount(ids.ravel(), minlength=self.n_names)
        kept = np.flatnonzero(counts >= min_count)
        # names sort like their indices, so ties break lexicographically
        self.vocab = kept[np.lexsort((kept, -counts[kept]))]
        self.vocab_counts = counts[self.vocab]
        in_vocab = counts >= min_count
        keys = []
        for offset in range(1, window + 1):  # rows are documents: no pair crosses one
            lead, ctx = ids[:, :-offset], ids[:, offset:]
            mask = in_vocab[lead] & in_vocab[ctx]
            keys.append(lead[mask] * self.n_names + ctx[mask])
        self.pair_keys, pair_counts = np.unique(np.concatenate(keys), return_counts=True)
        self.pair_counts = pair_counts.astype(np.int64)
        self.total_pairs = int(self.pair_counts.sum())
        self.prob = self.vocab_counts / self.vocab_counts.sum()
        self.vocab_pos = {int(g): k for k, g in enumerate(self.vocab)}

    def pair_count(self, lead: np.ndarray, ctx: np.ndarray) -> np.ndarray:
        keys = np.asarray(lead, dtype=np.int64) * self.n_names + np.asarray(ctx, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.pair_keys, keys), len(self.pair_keys) - 1)
        return np.where(self.pair_keys[pos] == keys, self.pair_counts[pos], 0)

    def model(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """PMI and unscaled weight for vocabulary positions rows x cols."""
        a, b = self.vocab[rows][:, None], self.vocab[cols][None, :]
        emp = (self.pair_count(a, b) + self.pair_count(b, a)) / (2.0 * self.total_pairs)
        indep = np.outer(self.prob[rows], self.prob[cols])
        p = (1.0 - self.lam) * emp + self.lam * indep
        return np.log(p / indep), p**self.alpha

    def core_model(self, core: int) -> tuple[np.ndarray, np.ndarray, float]:
        """PMI block, scaled weight block and the scale of the core."""
        idx = np.arange(core)
        pmi, raw = self.model(idx, idx)
        normalizer = float(raw.max())
        return pmi, raw / normalizer, normalizer


def read_vec(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        n, dim = (int(x) for x in fh.readline().split())
        words, rows = [], []
        for line in fh:
            fields = line.split()
            words.append(fields[0])
            rows.append([float(x) for x in fields[1:]])
    vectors = np.array(rows, dtype=float).reshape(len(rows), dim)
    _require(len(words) == n, f"{path}: header says {n} rows, found {len(words)}")
    return words, vectors


def check_unigrams(path, oracle: Oracle) -> None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    _require(header == ["#total", str(oracle.n_tokens)],
             f"{path}: header {header} != total {oracle.n_tokens}")
    expected = [[oracle.names[g], str(c)] for g, c in zip(oracle.vocab, oracle.vocab_counts)]
    _require(rows == expected, f"{path}: words or counts differ from the numpy count")


_RECORD = re.compile(r"^([a-z]+)\t(\d+)$", re.M)


def check_bigrams(path, oracle: Oracle, window: int, sample: int, seed: int) -> tuple[int, int]:
    """Row totals and the distinct pair count exactly, and every pair of
    ``sample`` leading words.  Returns (pairs counted, distinct pairs)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _require(text.startswith(f"#window {window}\n"), f"{path}: bad window header")
    records = list(_RECORD.finditer(text))
    file_totals = {m.group(1): int(m.group(2)) for m in records}
    lead = oracle.pair_keys // oracle.n_names
    row_sums = np.bincount(lead, weights=oracle.pair_counts, minlength=oracle.n_names)
    expected = {oracle.names[g]: int(row_sums[g]) for g in np.flatnonzero(row_sums)}
    _require(file_totals == expected, f"{path}: row totals differ from the numpy count")
    distinct = text.count("\n\t")
    _require(distinct == len(oracle.pair_keys),
             f"{path}: {distinct} distinct pairs, numpy counts {len(oracle.pair_keys)}")
    rng = np.random.default_rng(seed)
    index = {name: g for g, name in enumerate(oracle.names)}
    for k in rng.choice(len(records), size=min(sample, len(records)), replace=False):
        match = records[k]
        end = records[k + 1].start() if k + 1 < len(records) else len(text)
        block = text[match.end() + 1 : end].split("\n")
        got = dict(line[1:].rsplit(":", 1) for line in block if line)
        g = index[match.group(1)]
        sel = lead == g
        want = {oracle.names[j]: str(c) for j, c in
                zip(oracle.pair_keys[sel] % oracle.n_names, oracle.pair_counts[sel])}
        _require(got == want, f"{path}: pair counts of {match.group(1)!r} differ")
    total = sum(file_totals.values())
    _require(total == oracle.total_pairs, f"{path}: {total} pairs, numpy counts {oracle.total_pairs}")
    return total, distinct


def check_core(vec_path, manifest_path, oracle: Oracle, core: int) -> float:
    """Monotone residual trace, and the final residual recomputed from the
    written vectors.  Returns final over initial residual."""
    with open(manifest_path, encoding="utf-8") as fh:
        residuals = json.load(fh)["diagnostics"]["residuals"]
    for before, after in zip(residuals, residuals[1:]):
        _require(after <= before, f"{manifest_path}: residual rose {before} -> {after}")
    words, vectors = read_vec(vec_path)
    _require(words == [oracle.names[g] for g in oracle.vocab[:core]],
             f"{vec_path}: rows are not the {core} most frequent words")
    pmi, weights, _ = oracle.core_model(core)
    residual = float(np.sum(weights * (pmi - vectors @ vectors.T) ** 2))
    _require(abs(residual - residuals[-1]) <= RESIDUAL_RTOL * residuals[-1],
             f"{vec_path}: recomputed residual {residual} != manifest {residuals[-1]}")
    return residuals[-1] / residuals[0]


def check_growth(vec_path, oracle: Oracle, core: int, normalizer: float,
                 groups: list[tuple[int, float]], sample: int, seed: int) -> None:
    """Sampled grown words of each group satisfy their ridge normal equations
    (2 V^T W V + mu I) v = 2 V^T W g against the written core vectors."""
    words, vectors = read_vec(vec_path)
    n_vocab = len(oracle.vocab)
    expected = [oracle.names[g] for g in oracle.vocab[: min(n_vocab, core + sum(n for n, _ in groups))]]
    _require(words == expected, f"{vec_path}: rows are not the vocabulary in frequency order")
    core_vectors = vectors[:core]
    rng = np.random.default_rng(seed)
    start = core
    for size, mu in groups:
        picks = rng.choice(np.arange(start, start + size), size=min(sample, size), replace=False)
        for pos in picks:
            pmi, raw = oracle.model(np.array([pos]), np.arange(core))
            g, w = pmi[0], raw[0] / normalizer
            lhs = 2.0 * (core_vectors.T * w) @ core_vectors + mu * np.eye(core_vectors.shape[1])
            rhs = 2.0 * core_vectors.T @ (w * g)
            v = vectors[pos]
            gap = float(np.linalg.norm(lhs @ v - rhs))
            scale = float(np.linalg.norm(lhs) * np.linalg.norm(v) + np.linalg.norm(rhs))
            _require(gap <= NORMAL_EQ_RTOL * scale,
                     f"{vec_path}: {words[pos]!r} misses its normal equations ({gap:.3g} / {scale:.3g})")
        start += size


def average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], len(x)] - 1
    ranks = np.empty(len(x))
    ranks[order] = ((starts + ends) / 2.0 + 1.0)[np.cumsum(first) - 1]
    return ranks


def check_spearman(report_path, vec_path, testset_path) -> float:
    """The reported Spearman value equals a recomputation from the .vec."""
    with open(report_path, encoding="utf-8") as fh:
        found = re.search(r"^sim\.spearman=(\S+)$", fh.read(), re.M)
    _require(found is not None, f"{report_path}: no sim.spearman line")
    reported = float(found.group(1))
    words, vectors = read_vec(vec_path)
    index = {w: k for k, w in enumerate(words)}
    norms = np.linalg.norm(vectors, axis=1)
    human, predicted = [], []
    with open(testset_path, encoding="utf-8") as fh:
        for line in fh:
            a, b, score = line.rstrip("\n").split("\t")
            i, j = index.get(a), index.get(b)
            if i is None or j is None or norms[i] == 0.0 or norms[j] == 0.0:
                continue
            human.append(float(score))
            predicted.append(float(vectors[i] @ vectors[j] / (norms[i] * norms[j])))
    rx = average_ranks(np.array(human))
    ry = average_ranks(np.array(predicted))
    rho = float(np.corrcoef(rx, ry)[0, 1])
    _require(abs(rho - reported) <= SPEARMAN_ATOL, f"{report_path}: spearman {reported} != {rho}")
    return reported


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
