"""Dense symmetric-matrix helpers: Jacobi eigensolver, definiteness tests,
Schur-complement reduction.

All routines work on small dense matrices (the block inequalities assembled
elsewhere stay well under dimension ~20), favouring deterministic behaviour
over raw speed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class InvalidMatrixError(ValueError):
    """Input is not a finite, square, real matrix."""


class SingularBlockError(ValueError):
    """A block that must be inverted is singular to working precision."""


class EigResult(NamedTuple):
    values: np.ndarray    # ascending
    vectors: np.ndarray   # column k pairs with values[k]


def sym_matrix(entries) -> np.ndarray:
    """Build an exactly symmetric matrix by mirroring the upper triangle.

    Accepts anything array-like; rejects non-square or non-finite input.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("matrix entries must be finite")
    upper = np.triu(a)
    return upper + np.triu(a, 1).T


def default_tol(a: np.ndarray, base: float = 1e-9) -> float:
    """Absolute eigenvalue tolerance scaled by max(1, inf-norm of a)."""
    scale = max(1.0, float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 1.0)
    return base * scale


def sym_eig(a, sweep_tol: float = 1e-14, max_sweeps: int = 60) -> EigResult:
    """Full eigendecomposition of a symmetric matrix via cyclic Jacobi.

    Returns eigenvalues in ascending order with orthonormal eigenvectors as
    matching columns. Deterministic: identical input gives identical output.
    """
    a = sym_matrix(a)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return EigResult(a[0].copy(), v)

    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return EigResult(np.zeros(n), v)

    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= sweep_tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    t = np.sign(tau) if tau != 0.0 else 1.0
                    t = t / (abs(tau) + np.hypot(tau, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                # two-sided plane rotation: A <- J' A J, J = rot(p, q)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq

    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return EigResult(values[order], v[:, order])


def min_eig(a) -> float:
    return float(sym_eig(a).values[0])


def max_eig(a) -> float:
    return float(sym_eig(a).values[-1])


def is_psd(a, tol: float | None = None) -> bool:
    """Positive semidefinite up to an absolute eigenvalue tolerance."""
    a = sym_matrix(a)
    if tol is None:
        tol = default_tol(a)
    return min_eig(a) >= -tol


def is_nsd(a, tol: float | None = None) -> bool:
    """Negative semidefinite up to an absolute eigenvalue tolerance."""
    a = sym_matrix(a)
    if tol is None:
        tol = default_tol(a)
    return max_eig(a) <= tol


def schur_reduce(m, split: int) -> np.ndarray:
    """Schur complement of the trailing block.

    For m = [[A, B'], [B, C]] with A of size `split`, returns A - B' C^{-1} B.
    Raises SingularBlockError when C is singular to working precision.
    """
    m = sym_matrix(m)
    n = m.shape[0]
    if not 0 < split < n:
        raise InvalidMatrixError(f"split {split} out of range for size {n}")
    a = m[:split, :split]
    bt = m[:split, split:]
    c = m[split:, split:]
    c_eigs = sym_eig(c).values
    c_scale = max(1.0, float(np.max(np.abs(c_eigs))))
    if float(np.min(np.abs(c_eigs))) <= 1e-12 * c_scale:
        raise SingularBlockError("trailing block is singular to working precision")
    reduced = a - bt @ np.linalg.solve(c, bt.T)
    return sym_matrix(0.5 * (reduced + reduced.T))
