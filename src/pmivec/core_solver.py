"""Joint embedding solve on the dense head block.

The objective is a weighted Frobenius fit of a symmetric PMI block by a
positive semidefinite matrix of rank at most d.  With weights in [0, 1] the
classic majorization step applies: impute the unobserved part of the target
from the current iterate, then truncate to the best rank-d PSD matrix by
eigendecomposition.  Each sweep can only lower the weighted residual, so the
solve needs no step size and no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoreSolveConfig:
    """Embedding dimension plus stopping rule (relative residual change)."""

    dim: int
    max_iters: int = 20
    tol: float = 1e-4

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass
class SolveDiagnostics:
    """Weighted residual at the zero start and after every sweep."""

    residuals: list[float]
    iterations: int
    converged: bool


def weighted_frobenius(target, approx, weights) -> float:
    """Sum of weights * (target - approx) ** 2 over all entries."""
    target = np.asarray(target, dtype=float)
    approx = np.asarray(approx, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not target.shape == approx.shape == weights.shape:
        raise ValueError("target, approximation and weights must share a shape")
    return float(np.sum(weights * (target - approx) ** 2))


def psd_truncate(sym, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-``dim`` positive semidefinite approximation of a symmetric matrix.

    Returns ``(factor, approx)`` where ``factor`` is (n, dim) with one row per
    word, ``approx = factor @ factor.T``, and the kept eigenvalues are the
    ``dim`` largest, clamped at zero from below.  The sign of each eigenvector
    is fixed by making its largest-magnitude entry positive, so repeated runs
    are bit-identical.
    """
    sym = np.asarray(sym, dtype=float)
    if sym.ndim != 2 or sym.shape[0] != sym.shape[1]:
        raise ValueError("matrix must be square")
    n = sym.shape[0]
    if not 1 <= dim <= n:
        raise ValueError(f"dim must lie in 1..{n}")
    sym = (sym + sym.T) / 2.0
    try:
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        finite = bool(np.all(np.isfinite(sym)))
        peak = float(np.abs(sym).max(initial=0.0))
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed on a {n}x{n} block "
            f"(finite={finite}, max |entry|={peak:.3e}): {exc}"
        ) from exc
    order = np.argsort(evals)[::-1][:dim]
    lam = np.clip(evals[order], 0.0, None)
    basis = evecs[:, order]
    for k in range(basis.shape[1]):
        col = basis[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            basis[:, k] = -col
    factor = basis * np.sqrt(lam)
    return factor, factor @ factor.T


def em_factorize(
    target: np.ndarray, weights: np.ndarray, cfg: CoreSolveConfig
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve the weighted rank-``cfg.dim`` PSD fit of a symmetric block.

    Starts from the zero matrix, which makes runs reproducible.  Weights must
    lie in [0, 1] (use a normalized weight block); the imputation step is a
    descent step only under that scaling.  Returns the (n, dim) factor whose
    rows are the word vectors, plus per-sweep diagnostics.
    """
    target = np.asarray(target, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if target.shape != weights.shape:
        raise ValueError("target and weights must share a shape")
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise ValueError("target must be square")
    if not np.all((weights >= 0.0) & (weights <= 1.0)):
        raise ValueError("weights must lie in [0, 1]")
    n = target.shape[0]
    if cfg.dim > n:
        raise ValueError("dim exceeds the block size")
    target = (target + target.T) / 2.0

    approx = np.zeros_like(target)
    factor = np.zeros((n, cfg.dim))
    residuals = [weighted_frobenius(target, approx, weights)]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iters):
        imputed = weights * target + (1.0 - weights) * approx
        factor, approx = psd_truncate(imputed, cfg.dim)
        residuals.append(weighted_frobenius(target, approx, weights))
        iterations += 1
        previous, current = residuals[-2], residuals[-1]
        if previous == 0.0 or abs(previous - current) <= cfg.tol * previous:
            converged = True
            break
    return factor, SolveDiagnostics(residuals, iterations, converged)
