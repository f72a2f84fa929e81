"""Joint embedding solve on the dense head block.

The objective is a weighted Frobenius fit of a symmetric PMI block by a
positive semidefinite matrix of rank at most d.  With weights in [0, 1] the
classic majorization step applies: impute the unobserved part of the target
from the current iterate, then truncate to the best rank-d PSD matrix: by a
full eigendecomposition up to 4(d + 16) words, above that by Rayleigh-Ritz on
a block-Krylov space started from the first d + 16 columns, then from the last
sweep's Ritz vectors.  Each sweep can only lower the weighted residual (the
previous iterate stays feasible), so the solve needs no step size or randomness.

Dense memory, for an n-word block: the caller's target and weights, each used
as it is when it is exactly symmetric (else one averaged copy), plus
two n x n arrays of the solve: the iterate, whose buffer also holds the
Krylov basis between the imputation and ``F F^T``, and the work block (the
imputed block, then the residual terms).  The Rayleigh-Ritz matrix is at most
min(n, 9(d + 16)) square and is built one block of columns at a time.
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
#: Singular values of a projected Krylov block below this fraction of its
#: longest column before projection lie in the space so far.
_DEFLATE = 1e-10


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


def _append_block(space, k: int, block, floor: float) -> int:
    """Orthonormalize ``block`` against ``space[:, :k]`` into the next columns
    of ``space``; returns how many columns it adds.

    Classical Gram-Schmidt runs twice.  Between the runs, the SVD of the
    projected block keeps only its directions above ``floor``: the rest lies
    in the space already, as rounding noise or exact zeros, and QR would turn
    it into directions that are not orthogonal to the space.  The second run
    removes what the first left, magnified by small singular values; the
    block is then orthonormal but for that tiny change, so a Cholesky QR
    (``B L^-T`` with ``L L^T = B^T B``) restores it at matrix-product cost.
    """
    block -= space[:, :k] @ (space[:, :k].T @ block)
    u, sv, _ = np.linalg.svd(block, full_matrices=False)
    new = min(int(np.count_nonzero(sv > floor)), space.shape[0] - k)
    if new:
        block = u[:, :new]
        block -= space[:, :k] @ (space[:, :k].T @ block)
        space[:, k:k + new] = block @ np.linalg.inv(np.linalg.cholesky(block.T @ block).T)
    return new


def _ritz_psd_factor(sym, start, steps: int, dim: int, space) -> tuple[np.ndarray, np.ndarray]:
    """``_psd_factor`` of the Rayleigh-Ritz pairs of ``sym`` on the space
    ``[start, sym start, ..., sym^steps start]``.

    The orthonormal basis is written into the columns of ``space``, an n x n
    scratch array, so it never has more than n columns.  The first block is
    orthonormalized by QR, each later one by :func:`_append_block`.  When
    ``sym`` maps the space into itself (an exactly low-rank, diagonal or
    block-diagonal ``sym`` can), the next block is the unit vectors of the
    words the space covers least, so a solve does not stay in the part of
    the block that its first columns reach.
    """
    n, b = start.shape
    space[:, :b] = np.linalg.qr(start)[0]
    lo, k = 0, b  # the last block is space[:, lo:k]
    for _ in range(steps):
        block = sym @ space[:, lo:k]
        new = _append_block(space, k, block, _DEFLATE * np.linalg.norm(block, axis=0).max())
        if new == 0 and k < n:
            cover = np.einsum("ij,ij->i", space[:, :k], space[:, :k])
            block = np.zeros((n, min(b, n - k)))
            block[np.argsort(cover, kind="stable")[:block.shape[1]], np.arange(block.shape[1])] = 1.0
            new = _append_block(space, k, block, _DEFLATE)
        if new == 0:
            break
        lo, k = k, k + new
    basis = space[:, :k]
    ritz = np.empty((k, k))
    for j in range(0, k, b):  # eigh reads the lower triangle only
        ritz[j:, j:j + b] = basis[:, j:].T @ (sym @ basis[:, j:j + b])
    evals, evecs = np.linalg.eigh(ritz)
    return _psd_factor(evals[-dim:], basis @ evecs[:, -dim:], dim)  # eigh sorts ascending


def _symmetric(a: np.ndarray) -> np.ndarray:
    """``(a + a.T) / 2``, which is ``a`` bit for bit when ``a`` is exactly symmetric."""
    return a if np.array_equal(a, a.T) else (a + a.T) / 2.0


def em_factorize(
    target: np.ndarray, weights: np.ndarray, cfg: CoreSolveConfig
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve the weighted rank-``cfg.dim`` PSD fit of a symmetric block.

    Starts from the zero matrix, which makes runs reproducible.  The target
    must be finite and the weights must lie in [0, 1] (use a normalized
    weight block); the imputation step is a descent step only under that
    scaling.  A target or weight block that is not exactly symmetric is
    averaged with its transpose; the sweep needs symmetric ones, and for a
    symmetric target the averaged weights give the same objective.  Returns
    the (n, dim) factor whose rows are the word vectors, plus per-sweep
    diagnostics.
    """
    target = np.asarray(target, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if target.shape != weights.shape:
        raise ValueError("target and weights must share a shape")
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise ValueError("target must be square")
    n = target.shape[0]
    if cfg.dim > n:
        raise ValueError("dim exceeds the block size")
    # reductions, not n x n boolean temporaries; a NaN fails every comparison
    if not (weights.min() >= 0.0 and weights.max() <= 1.0):
        raise ValueError("weights must lie in [0, 1]")
    if not (np.isfinite(target.min()) and np.isfinite(target.max())):
        raise ValueError("target must be finite")
    target, weights = _symmetric(target), _symmetric(weights)
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
        else:  # the first sweep starts from the most frequent words' columns; the
            # Krylov basis lives in the iterate's buffer, idle until F F^T overwrites it
            start, steps = (basis, _WARM_STEPS) if iterations else (work[:, :cfg.dim + _OVERSAMPLE], _FIRST_STEPS)
            factor, basis = _ritz_psd_factor(work, start, steps, cfg.dim, approx)
            np.matmul(factor, factor.T, out=approx)
        residuals.append(residual())
        iterations += 1
        previous, current = residuals[-2], residuals[-1]
        if previous == 0.0 or abs(previous - current) <= cfg.tol * previous:
            converged = True
            break
    return factor, SolveDiagnostics(residuals, iterations, converged, method)
