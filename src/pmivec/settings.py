"""The two model settings and the bound on the pair window, in one module
that imports no numpy, so that the command-line parser takes its defaults
and bounds from them without loading the numerical layers.  ``statistics``
and ``core_solver`` re-export the settings."""

from __future__ import annotations

from dataclasses import dataclass

from .ioutil import check_setting

#: Largest pair window: the bigram companion stores it as a uint64.
MAX_WINDOW = 2**64 - 1


@dataclass(frozen=True)
class PmiConfig:
    """Jelinek-Mercer weight ``lam`` between the empirical pair probability
    (weight 1 - lam) and the unigram product (weight lam); a pair probability
    p has fit weight min(p, cap) ** alpha, divided by the core block maximum."""

    lam: float = 0.1
    alpha: float = 0.5
    cap: float | None = None

    def __post_init__(self):
        check_setting("lam", self.lam, 0.0, 1.0)
        check_setting("alpha", self.alpha, 0.0, above=True)
        if self.cap is not None:
            check_setting("cap", self.cap, 0.0, above=True)


@dataclass(frozen=True)
class CoreSolveConfig:
    """Embedding dimension plus stopping rule (relative residual change)."""

    dim: int
    max_iters: int = 20
    tol: float = 1e-4

    def __post_init__(self):
        check_setting("dim", self.dim, 1, integral=True)
        check_setting("max_iters", self.max_iters, 1, integral=True)
        check_setting("tol", self.tol, 0.0, above=True)
