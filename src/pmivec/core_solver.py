"""Joint embedding solve on the dense head block.

The objective is a weighted Frobenius fit of a symmetric PMI block by a
positive semidefinite matrix of rank at most d.  With weights in [0, 1] the
classic majorization step applies: impute the unobserved part of the target
from the current iterate, then truncate to the best rank-d PSD matrix by
Rayleigh-Ritz on a block-Krylov space started from the first d + 16 columns,
then from the last sweep's Ritz vectors.  Up to 5(d + 16) words the first
space spans every column, so the first sweep's truncation is exact.  A plain
sweep can only lower the weighted residual (the previous iterate stays
feasible), so one after the first that does not has met rounding level: it is
undone and ends the solve.  From the third sweep the imputation step is
over-relaxed by a factor that grows while sweeps pay off; a relaxed sweep that
does not lower the residual is undone and the factor falls back to 1 (the
adaptive over-relaxed bound optimization of Salakhutdinov & Roweis, ICML 2003).
The solve needs no tuning or randomness.

Dense memory, for an n-word block: the caller's target T and weights W, each
used as it is when it is exactly symmetric (else one averaged copy), and the
weighted residual R = W (T - F F^T) of the last accepted n x d factor F.
Neither F F^T nor the imputed block F F^T + omega R is formed: a Krylov product
is F (F^T Q) + omega R Q.  The Krylov basis is n x min(n, 5(d + 16)); the Ritz
matrix, as many columns square, comes from the Gram-Schmidt coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .settings import CoreSolveConfig

#: Oversampling of the first Krylov block, and block steps of the first and later sweeps.
_OVERSAMPLE, _FIRST_STEPS, _WARM_STEPS = 16, 4, 1
#: Over-relaxation: omega grows by this factor after each accepted sweep from
#: the second on, up to the cap.
_OMEGA_GROWTH, _OMEGA_MAX = 1.5, 64.0
#: Singular values of a projected Krylov block below this fraction of its longest
#: column before projection lie in the space so far (the Gram matrix rounds at ~1e-8).
_DEFLATE = 1e-6
#: Entries of the residual pass's temporary, which takes whole rows.
_REFIT_CHUNK = 1 << 16


@dataclass
class SolveDiagnostics:
    """Weighted residual at the zero start and after every sweep, the
    over-relaxation factor of every sweep and the rejected sweeps (numbered
    from 1), whose residual repeats the one before."""

    residuals: list[float]
    iterations: int
    converged: bool
    omegas: list[float]
    rejected: list[int]


def weighted_frobenius(target, approx, weights) -> float:
    """Sum of weights * (target - approx) ** 2 over all entries."""
    target = np.asarray(target, dtype=float)
    approx = np.asarray(approx, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not target.shape == approx.shape == weights.shape:
        raise ValueError("target, approximation and weights must share a shape")
    return float(np.sum(weights * (target - approx) ** 2))


def _append_block(space, k: int, block, floor: float, coef=None) -> int:
    """Orthonormalize ``block`` against ``space[:, :k]`` into the next columns
    of ``space``; returns how many columns it adds.

    Classical Gram-Schmidt runs twice; ``coef`` receives the first run's
    coefficients.  Between the runs, SVQB (an ``eigh`` of the projected block's
    Gram matrix) keeps the directions whose singular value is above ``floor``;
    the rest lies in the space already, as rounding noise or exact zeros.  The
    second run removes what the first left, and a Cholesky QR (``B L^-T`` with
    ``L L^T = B^T B``) restores orthonormality at matrix-product cost.
    """
    coef = np.matmul(space[:, :k].T, block, out=coef)
    block -= space[:, :k] @ coef
    evals, evecs = np.linalg.eigh(block.T @ block)  # squared singular values, ascending
    new = min(int(np.count_nonzero(evals > floor * floor)), space.shape[0] - k)
    if new:
        block = block @ (evecs[:, -new:] / np.sqrt(evals[-new:]))
        block -= space[:, :k] @ (space[:, :k].T @ block)
        space[:, k:k + new] = block @ np.linalg.inv(np.linalg.cholesky(block.T @ block).T)
    return new


def _ritz_psd_factor(sym, start, steps: int, dim: int, orthonormal=False) -> tuple[np.ndarray, np.ndarray]:
    """``(factor, basis)`` of the ``dim`` largest Rayleigh-Ritz pairs of a
    symmetric ``Y`` on the space ``[start, Y start, ..., Y^steps start]``;
    ``sym(q)`` returns ``Y q``.  The factor is ``basis * sqrt(value)`` with each
    value clamped at zero, and each basis column is signed so that its
    largest-magnitude entry is positive, which makes runs bit-identical.

    The orthonormal basis is an n x min(n, b (steps + 1)) array of its own for
    the b columns of ``start``.  The first block is orthonormalized by QR
    unless it is ``orthonormal``, each later one by :func:`_append_block`,
    whose coefficients ``Q^T (Y Q_j)`` are block column j of the Ritz matrix:
    ``sym`` takes each basis column once.  When ``Y`` maps the space into
    itself (an exactly low-rank, diagonal or block-diagonal ``Y`` can), the
    next block is the unit vectors of the words the space covers least, so a
    solve does not stay where its first columns reach.
    """
    n, b = start.shape
    space = np.empty((n, min(n, b * (steps + 1))))
    space[:, :b] = start if orthonormal else np.linalg.qr(start)[0]
    ritz = np.empty((space.shape[1],) * 2)  # eigh reads the upper triangle only
    lo, k = 0, b  # the last block is space[:, lo:k]
    for _ in range(steps):
        block = sym(space[:, lo:k])
        new = _append_block(space, k, block, _DEFLATE * np.linalg.norm(block, axis=0).max(), ritz[:k, lo:k])
        if new == 0 and k < n:
            least = np.argsort(np.einsum("ij,ij->i", space[:, :k], space[:, :k]), kind="stable")[:min(b, n - k)]
            new = _append_block(space, k, (np.arange(n)[:, None] == least) * 1.0, _DEFLATE)
        if new == 0:
            break
        lo, k = k, k + new
    else:  # the last block's product is the only one the loop did not make
        block = sym(space[:, lo:k])
        np.matmul(space[:, :k].T, block, out=ritz[:k, lo:k])
    del block  # free it before the eigh, the sweep's memory peak
    evals, evecs = np.linalg.eigh(ritz[:k, :k], UPLO="U")  # ascending
    order = np.argsort(evals[-dim:])[::-1]
    lam = np.clip(evals[-dim:][order], 0.0, None)
    basis = (space[:, :k] @ evecs[:, -dim:])[:, order]
    basis *= np.where(basis[np.argmax(np.abs(basis), axis=0), np.arange(dim)] < 0.0, -1.0, 1.0)
    return basis * np.sqrt(lam), basis


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

    The first two sweeps impute ``F F^T + R``, for the last accepted factor
    ``F`` and ``R = weights * (target - F F^T)``.  Each later one imputes
    ``F F^T + omega R``, with ``omega`` growing 1.5-fold after every accepted
    sweep up to 64.  Such a sweep is accepted only when it lowers the residual
    by more than ``cfg.tol`` of it.  Otherwise the last accepted factor is
    kept, its residual is recorded again, and the next sweep is plain.  A
    rejected sweep counts toward ``cfg.max_iters``.  A plain sweep after the
    first that does not lower the residual at all is rejected too and ends the
    solve as converged: in exact arithmetic it cannot raise the residual, so it
    has reached rounding level.  A rejected relaxed sweep never ends it.
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

    factor, basis = np.zeros((n, cfg.dim)), None  # the last accepted factor and Ritz basis
    resid = np.empty_like(target)  # W (T - F F^T) for that factor
    step = max(1, _REFIT_CHUNK // n)

    def refit(f) -> float:
        """Write ``resid`` for ``f`` in row chunks; returns its weighted residual."""
        total = 0.0
        for k in range(0, n, step):
            gap = target[k:k + step] - f[k:k + step] @ f.T
            np.multiply(weights[k:k + step], gap, out=resid[k:k + step])
            total += float(np.sum(np.multiply(gap, resid[k:k + step], out=gap)))
        return total

    def imputed(q):  # Y q for the imputed block Y = F F^T + omega R
        return omega * (resid @ q) + factor @ (factor.T @ q)

    residuals, omegas, rejected = [refit(factor)], [], []
    converged, omega = False, 1.0
    for sweep in range(1, cfg.max_iters + 1):
        # the first sweep starts from the most frequent words' columns of Y = W T
        start, steps = (resid[:, :cfg.dim + _OVERSAMPLE], _FIRST_STEPS) if basis is None else (basis, _WARM_STEPS)
        trial, trial_basis = _ritz_psd_factor(imputed, start, steps, cfg.dim, basis is not None)
        omegas.append(omega)
        previous, current = residuals[-1], refit(trial)
        if sweep > 1 and not current < previous - (cfg.tol * previous if omega > 1.0 else 0.0):
            residuals.append(previous)
            rejected.append(sweep)
            if omega == 1.0:  # a plain sweep only fails to descend at rounding level
                converged = True
                break
            # the over-relaxed step did not pay: restart plain from the last accepted factor
            refit(factor)
            omega = 1.0
            continue
        residuals.append(current)
        factor, basis = trial, trial_basis
        if previous == 0.0 or abs(previous - current) <= cfg.tol * previous:
            converged = True
            break
        if sweep >= 2:
            omega = min(_OMEGA_GROWTH * omega, _OMEGA_MAX)
    return factor, SolveDiagnostics(residuals, len(omegas), converged, omegas, rejected)
