"""Seeded synthetic corpus with a closed-form pair distribution.

The design follows ``tests/smokedata.py``: a Zipf-weighted pool of common
words shared by every document, plus topical words drawn from the
document's topic.  Here topics sit on a circle and every topical word has an
angle on it, so a word belongs to nearby topics with graded strength and
pair PMI takes graded values instead of three.  Tokens inside one document
are independent given its topic, which makes the in-window pair
distribution exact:

    P1(w|t)  = f * Q(w|t) for topical words, (1 - f) * C(w) for common words
    P(w)     = mean_t P1(w|t)
    P(a, b)  = mean_t P1(a|t) P1(b|t)
    PMI(a,b) = ln(P(a, b) / (P(a) P(b)))

The similarity testset scores word pairs by that PMI.  Word names are four
lowercase letters fixed by the word's index, so the corpus survives the
program's tokenizer unchanged; documents are separated by a blank line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAME_LEN = 4
GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class CorpusSpec:
    n_tokens: int
    n_topic_words: int
    n_common: int = 1200
    n_topics: int = 40
    zipf: float = 1.0
    kappa: float = 4.0
    topical_fraction: float = 0.55
    sentence_len: int = 20
    doc_sentences: int = 4

    @property
    def vocab_size(self) -> int:
        return self.n_common + self.n_topic_words

    @property
    def doc_len(self) -> int:
        return self.sentence_len * self.doc_sentences

    @property
    def n_docs(self) -> int:
        return max(1, self.n_tokens // self.doc_len)


def word_names(n: int) -> list[str]:
    """Stable four-letter name per index (index 0 is 'aaaa')."""
    if n > 26**NAME_LEN:
        raise ValueError(f"{n} words exceed {NAME_LEN}-letter names")
    idx = np.arange(n)
    letters = [(idx // 26**p) % 26 for p in reversed(range(NAME_LEN))]
    codes = np.stack(letters, axis=1).astype(np.uint8) + ord("a")
    return [row.tobytes().decode("ascii") for row in codes]


class Model:
    """The generator's word distributions for one spec."""

    def __init__(self, spec: CorpusSpec):
        self.spec = spec
        common = 1.0 / (np.arange(spec.n_common) + 3.0)
        self.common = common / common.sum()
        rank = np.arange(spec.n_topic_words)
        base = 1.0 / (rank + 3.0) ** spec.zipf
        theta = 2.0 * np.pi * ((rank * GOLDEN) % 1.0)
        phi = 2.0 * np.pi * np.arange(spec.n_topics) / spec.n_topics
        affinity = np.exp(spec.kappa * np.cos(theta[None, :] - phi[:, None]))
        topical = base[None, :] * affinity
        self.topical = topical / topical.sum(axis=1, keepdims=True)  # (T, Vt)

    def token_probs(self) -> np.ndarray:
        """P1(w|t) over the whole vocabulary, shape (T, V)."""
        f = self.spec.topical_fraction
        common = np.broadcast_to((1.0 - f) * self.common, (self.spec.n_topics, self.spec.n_common))
        return np.concatenate([common, f * self.topical], axis=1)

    def marginal(self) -> np.ndarray:
        return self.token_probs().mean(axis=0)

    def pair_pmi(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p1 = self.token_probs()
        marginal = p1.mean(axis=0)
        joint = np.mean(p1[:, a] * p1[:, b], axis=0)
        return np.log(joint / (marginal[a] * marginal[b]))

    def sample(self, seed: int) -> np.ndarray:
        """Token ids, one row of ``doc_len`` per document."""
        spec = self.spec
        rng = np.random.default_rng(seed)
        shape = (spec.n_docs, spec.doc_len)
        doc_topic = rng.integers(0, spec.n_topics, size=spec.n_docs)
        topical = rng.random(shape) < spec.topical_fraction
        common_ids = np.searchsorted(np.cumsum(self.common), rng.random(shape), side="right")
        common_ids = np.minimum(common_ids, spec.n_common - 1)
        # one search over the per-topic CDFs laid end to end, topic t shifted by t
        cdf = np.cumsum(self.topical, axis=1)
        cdf[:, -1] = 1.0
        shifted = (cdf + np.arange(spec.n_topics)[:, None]).ravel()
        draw = doc_topic[:, None] + rng.random(shape)
        flat = np.searchsorted(shifted, draw, side="right")
        flat = np.minimum(flat, shifted.size - 1)
        topic_ids = flat - doc_topic[:, None] * spec.n_topic_words
        ids = np.where(topical, spec.n_common + topic_ids, common_ids)
        return ids.astype(np.int64)


def write_corpus(path, ids: np.ndarray, spec: CorpusSpec) -> None:
    """One sentence per line, a blank line after every document."""
    names = np.frombuffer("".join(word_names(spec.vocab_size)).encode("ascii"), dtype=np.uint8)
    names = names.reshape(spec.vocab_size, NAME_LEN)
    n_docs, doc_len = ids.shape
    cells = np.empty((n_docs, doc_len, NAME_LEN + 1), dtype=np.uint8)
    cells[:, :, :NAME_LEN] = names[ids]
    cells[:, :, NAME_LEN] = ord(" ")
    cells[:, spec.sentence_len - 1 :: spec.sentence_len, NAME_LEN] = ord("\n")
    body = np.empty((n_docs, doc_len * (NAME_LEN + 1) + 1), dtype=np.uint8)
    body[:, :-1] = cells.reshape(n_docs, -1)
    body[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(body.tobytes())


def write_similarity(path, model: Model, n_pairs: int, top_words: int, seed: int) -> None:
    """Write ``n_pairs`` distinct topical-word pairs scored by closed-form PMI.

    Pairs are drawn among the ``top_words`` topical words of highest
    marginal probability, so nearly all of them get embedded.
    """
    spec = model.spec
    marginal = model.marginal()[spec.n_common :]
    pool = spec.n_common + np.argsort(-marginal, kind="stable")[:top_words]
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, int]] = set()
    pairs = []
    while len(pairs) < n_pairs:
        a, b = (int(x) for x in rng.choice(pool, size=2, replace=False))
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    scores = model.pair_pmi(a, b)
    names = word_names(spec.vocab_size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, j, s in zip(a, b, scores):
            fh.write(f"{names[i]}\t{names[j]}\t{s:.6f}\n")
