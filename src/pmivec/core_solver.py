"""Joint embedding solve on the dense head block.

The objective is a weighted Frobenius fit of a symmetric PMI block by a
positive semidefinite matrix of rank at most d.  With weights in [0, 1] the
classic majorization step applies: impute the unobserved part of the target
from the current iterate, then truncate to the best rank-d PSD matrix: by a
full eigendecomposition up to 4(d + 16) words, above that by Rayleigh-Ritz on
a block-Krylov space started from the first d + 16 columns, then from the last
sweep's Ritz vectors.  Each sweep can only lower the weighted residual (the
previous iterate stays feasible), so the solve needs no step size or randomness.
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


#: Oversampling of the first Krylov block, and block steps of the first and later sweeps.
_OVERSAMPLE, _FIRST_STEPS, _WARM_STEPS = 16, 8, 2


@dataclass
class SolveDiagnostics:
    """Weighted residual at the zero start and after every sweep, and the truncation used."""

    residuals: list[float]
    iterations: int
    converged: bool
    method: str  # "eigh" (exact) or "block-krylov"


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
    factor = _psd_factor(evals, evecs, dim)[0]
    return factor, factor @ factor.T


def _psd_factor(evals, evecs, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``(factor, basis)`` of the ``dim`` largest eigenpairs: eigenvalues clamped
    at zero, each eigenvector signed so its largest-magnitude entry is positive."""
    order = np.argsort(evals)[::-1][:dim]
    lam = np.clip(evals[order], 0.0, None)
    basis = evecs[:, order]
    for k in range(basis.shape[1]):
        col = basis[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            basis[:, k] = -col
    return basis * np.sqrt(lam), basis


def _ritz_psd_factor(sym, start, steps: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``_psd_factor`` of the Rayleigh-Ritz pairs of ``sym`` on the space
    ``[start, sym start, ..., sym^steps start]``, each block orthonormalized by QR."""
    n, b = start.shape
    space = np.empty((n, b * (steps + 1)))  # in place: a block list plus hstack peaks higher
    space[:, :b] = np.linalg.qr(start)[0]
    for k in range(1, steps + 1):
        space[:, k * b:(k + 1) * b] = np.linalg.qr(sym @ space[:, (k - 1) * b:k * b])[0]
    basis = np.linalg.qr(space)[0]
    del space
    evals, evecs = np.linalg.eigh(basis.T @ (sym @ basis))  # reads one triangle only
    return _psd_factor(evals[-dim:], basis @ evecs[:, -dim:], dim)  # eigh sorts ascending


def em_factorize(
    target: np.ndarray, weights: np.ndarray, cfg: CoreSolveConfig
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve the weighted rank-``cfg.dim`` PSD fit of a symmetric block.

    Starts from the zero matrix, which makes runs reproducible.  The target
    must be finite and the weights must lie in [0, 1] (use a normalized
    weight block); the imputation step is a descent step only under that
    scaling.  Returns the (n, dim) factor whose rows are the word vectors,
    plus per-sweep diagnostics.
    """
    target = np.asarray(target, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if target.shape != weights.shape:
        raise ValueError("target and weights must share a shape")
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise ValueError("target must be square")
    if not np.all((weights >= 0.0) & (weights <= 1.0)):
        raise ValueError("weights must lie in [0, 1]")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    n = target.shape[0]
    if cfg.dim > n:
        raise ValueError("dim exceeds the block size")
    target = (target + target.T) / 2.0
    method = "block-krylov" if n > 4 * (cfg.dim + _OVERSAMPLE) else "eigh"

    approx = np.zeros_like(target)
    work = np.empty_like(target)  # the imputed block, then the residual terms

    def residual() -> float:
        np.subtract(target, approx, out=work)
        np.square(work, out=work)
        return float(np.sum(np.multiply(work, weights, out=work)))

    residuals = [residual()]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iters):
        # work = weights * target + (1 - weights) * approx, without temporaries
        np.subtract(1.0, weights, out=work)
        work *= approx
        np.multiply(weights, target, out=approx)
        work += approx
        if method == "eigh":
            factor, approx = psd_truncate(work, cfg.dim)
        else:  # the first sweep starts from the most frequent words' columns
            factor, basis = (_ritz_psd_factor(work, basis, _WARM_STEPS, cfg.dim) if iterations else
                             _ritz_psd_factor(work, work[:, :cfg.dim + _OVERSAMPLE], _FIRST_STEPS, cfg.dim))
            np.matmul(factor, factor.T, out=approx)
        residuals.append(residual())
        iterations += 1
        previous, current = residuals[-2], residuals[-1]
        if previous == 0.0 or abs(previous - current) <= cfg.tol * previous:
            converged = True
            break
    return factor, SolveDiagnostics(residuals, iterations, converged, method)
