"""Benchmark scoring for embedding sets.

Three testset kinds are supported: word-pair similarity (Spearman rank
correlation of cosine against human scores), word analogy solved with the
multiplicative 3CosMul rule, and multiple-choice synonym questions.  Items
involving out-of-vocabulary words are skipped and reported through the
coverage fraction rather than failing the run.  Words whose vector is all
zero carry no direction, so they are treated as out of vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .ioutil import ParseError, open_utf8

#: Denominator offset of the 3CosMul analogy rule.
COSMUL_EPSILON = 0.001


@dataclass(frozen=True)
class SimilarityTestset:
    items: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("a similarity testset needs at least 2 items")


@dataclass(frozen=True)
class AnalogyTestset:
    items: tuple[tuple[str, str, str, str], ...]

    def __post_init__(self):
        for item in self.items:
            if any(not w for w in item):
                raise ValueError("analogy items need four nonempty words")


@dataclass(frozen=True)
class ChoiceTestset:
    items: tuple[tuple[str, tuple[str, str, str, str], int], ...]

    def __post_init__(self):
        for _, candidates, answer in self.items:
            if len(candidates) != 4:
                raise ValueError("choice items need exactly 4 candidates")
            if not 0 <= answer <= 3:
                raise ValueError("answer index out of range")


@dataclass
class EvalReport:
    testset: str
    kind: str
    metric: float
    items_total: int
    items_covered: int

    @property
    def coverage(self) -> float:
        return self.items_covered / self.items_total if self.items_total else 0.0


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return float(u @ v / (nu * nv))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    _, group, counts = np.unique(np.asarray(values, dtype=float),
                                 return_inverse=True, return_counts=True)
    # a group of k ties ending at 1-based position e holds e - k + 1 .. e
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson correlation of the average-rank vectors."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("need two equal-length vectors of at least 2 values")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("rank correlation needs finite values")
    rx = average_ranks(xs) - (len(xs) + 1) / 2.0
    ry = average_ranks(ys) - (len(ys) + 1) / 2.0
    denom = np.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise ValueError("rank correlation is undefined for a constant input")
    return float(rx @ ry / denom)


def _unit_rows(emb: EmbeddingSet) -> tuple[np.ndarray, dict[str, int]]:
    """Row-normalized vectors plus the row index of each word that has a
    direction: the vocabulary the scorers see.  One division makes the one
    new n x d array.  A row whose norm is 0, even one of entries too small
    to square, is divided by 1 and then set to zero, so it is never scored."""
    norms = np.linalg.norm(emb.vectors, axis=1)
    usable = norms > 0.0
    unit = emb.vectors / np.where(usable, norms, 1.0)[:, None]
    unit[~usable] = 0.0
    return unit, {w: i for w, i in emb.index.items() if usable[i]}


def eval_similarity(emb: EmbeddingSet, testset: SimilarityTestset, name: str = "similarity") -> EvalReport:
    """Spearman rank correlation of cosine similarity against human scores."""
    unit, index = _unit_rows(emb)
    human: list[float] = []
    predicted: list[float] = []
    for w1, w2, score in testset.items:
        if w1 not in index or w2 not in index:
            continue
        human.append(score)
        predicted.append(float(unit[index[w1]] @ unit[index[w2]]))
    if len(human) < 2:
        raise ValueError(
            f"{name}: only {len(human)} of {len(testset.items)} pairs are in vocabulary"
        )
    rho = spearman(np.array(human), np.array(predicted))
    return EvalReport(name, "similarity", rho, len(testset.items), len(human))


def eval_analogy_3cosmul(emb: EmbeddingSet, testset: AnalogyTestset, name: str = "analogy") -> EvalReport:
    """Accuracy of 3CosMul predictions over the embedding vocabulary.

    For an item (a, a*, b, b*) the prediction is the vocabulary word x,
    excluding {a, a*, b}, maximizing s(x,b) * s(x,a*) / (s(x,a) + eps) with
    s = (cosine + 1) / 2.
    """
    if len(emb) < 4:
        raise ValueError("analogy evaluation needs a vocabulary of at least 4 words")
    unit, index = _unit_rows(emb)
    directionless = ~unit.any(axis=1)  # the rows whose norm was 0
    covered = 0
    correct = 0
    for item in testset.items:
        if any(w not in index for w in item):
            continue
        ia, ia_star, ib, ib_star = (index[w] for w in item)
        covered += 1
        sa = (unit @ unit[ia] + 1.0) / 2.0
        sa_star = (unit @ unit[ia_star] + 1.0) / 2.0
        sb = (unit @ unit[ib] + 1.0) / 2.0
        score = sb * sa_star / (sa + COSMUL_EPSILON)
        score[directionless] = -np.inf
        score[[ia, ia_star, ib]] = -np.inf
        if int(np.argmax(score)) == ib_star:
            correct += 1
    accuracy = correct / covered if covered else 0.0
    return EvalReport(name, "analogy", accuracy, len(testset.items), covered)


def eval_choice(emb: EmbeddingSet, testset: ChoiceTestset, name: str = "choice") -> EvalReport:
    """Accuracy of picking the candidate closest to the probe by cosine.

    Out-of-vocabulary candidates score -inf and are never picked; an item
    is skipped only when its probe is out of vocabulary, so one whose
    candidates are all out of vocabulary counts as answered wrong.
    """
    unit, index = _unit_rows(emb)
    covered = 0
    correct = 0
    for probe, candidates, answer in testset.items:
        if probe not in index:
            continue
        covered += 1
        p = index[probe]
        scores = [float(unit[index[c]] @ unit[p]) if c in index else -np.inf for c in candidates]
        pick = int(np.argmax(scores))
        if pick == answer and np.isfinite(scores[pick]):
            correct += 1
    accuracy = correct / covered if covered else 0.0
    return EvalReport(name, "choice", accuracy, len(testset.items), covered)


def load_similarity(path) -> SimilarityTestset:
    """Parse ``word1<TAB>word2<TAB>score`` lines (lowercased)."""
    items = []
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(path, line_no, "expected 'word1<TAB>word2<TAB>score'")
            try:
                score = float(parts[2])
            except ValueError:
                raise ParseError(path, line_no, f"score {parts[2]!r} is not a number") from None
            if not np.isfinite(score):
                raise ParseError(path, line_no, f"score {parts[2]!r} is not finite")
            items.append((parts[0].lower(), parts[1].lower(), score))
    try:
        return SimilarityTestset(tuple(items))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def load_analogy(path) -> AnalogyTestset:
    """Parse ``a a* b b*`` lines (lowercased, whitespace separated)."""
    items = []
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(path, line_no, "expected four words per line")
            items.append(tuple(w.lower() for w in fields))
    return AnalogyTestset(tuple(items))


def load_choice(path) -> ChoiceTestset:
    """Parse ``probe | c1 c2 c3 c4 | answer_index`` lines (lowercased)."""
    items = []
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise ParseError(path, line_no, "expected 'probe | c1 c2 c3 c4 | answer_index'")
            probe = parts[0].lower()
            candidates = tuple(w.lower() for w in parts[1].split())
            if not probe or len(candidates) != 4:
                raise ParseError(path, line_no, "need one probe and exactly 4 candidates")
            try:
                answer = int(parts[2])
            except ValueError:
                raise ParseError(path, line_no, f"answer index {parts[2]!r} is not an integer") from None
            if not 0 <= answer <= 3:
                raise ParseError(path, line_no, f"answer index {answer} out of range 0..3")
            items.append((probe, candidates, answer))
    return ChoiceTestset(tuple(items))


_METRIC_NAMES = {"similarity": "spearman", "analogy": "accuracy", "choice": "accuracy"}


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned text table, one row per testset."""
    name_width = max([len(r.testset) for r in reports] + [len("testset")])
    header = f"{'testset':<{name_width}}  {'kind':<10}  {'metric':>8}  {'covered':>12}  {'coverage':>8}"
    lines = [header]
    for r in reports:
        lines.append(
            f"{r.testset:<{name_width}}  {r.kind:<10}  {r.metric:>8.4f}"
            f"  {f'{r.items_covered}/{r.items_total}':>12}  {r.coverage:>8.3f}"
        )
    return "\n".join(lines)


def format_report_keyvalues(reports: list[EvalReport]) -> str:
    """Machine-readable ``name.key=value`` lines."""
    lines = []
    for r in reports:
        metric = _METRIC_NAMES[r.kind]
        lines.append(f"{r.testset}.{metric}={r.metric:.6f}")
        lines.append(f"{r.testset}.coverage={r.coverage:.6f}")
    return "\n".join(lines)
