"""Dense symmetric-matrix helpers: eigendecomposition, definiteness tests,
quadratic forms, Schur-complement reduction.

All routines work on small dense matrices (the block inequalities assembled
elsewhere stay well under dimension ~20). Every eigenvalue comes from
LAPACK's symmetric solvers (numpy's eigh/eigvalsh) applied to the mirrored
upper triangle; identical input gives identical output. min_eig and is_psd
also take a stack (..., n, n): one LAPACK call gives one value or verdict
per matrix, each bit for bit that of the matrix's own call (the default
tolerance is taken per matrix).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_TOL_SCALE = 1e-9    # default_tol per unit of a matrix's inf-norm


class InvalidMatrixError(ValueError):
    """Input is not a finite, square, real matrix."""


class SingularBlockError(ValueError):
    """A block that must be inverted is singular to working precision."""


class EigResult(NamedTuple):
    values: np.ndarray    # ascending
    vectors: np.ndarray   # column k pairs with values[k]


@functools.cache
def _upper_mask(n: int) -> np.ndarray:
    """Read-only (n, n) boolean mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def sym_matrix(entries) -> np.ndarray:
    """Build an exactly symmetric matrix by mirroring the upper triangle.

    Accepts anything array-like, also a stack (..., n, n) of matrices, each
    mirrored on its own; rejects non-square or non-finite input. Entries
    equal np.triu(a) + np.triu(a, 1).T bit for bit: adding 0.0 turns every
    -0.0 into +0.0, as the zeros of that sum do.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrixError("matrix entries must be finite")
    out = np.where(_upper_mask(a.shape[-1]), a, a.swapaxes(-1, -2))
    out += 0.0
    return out


def default_tol(a: np.ndarray):
    """Absolute eigenvalue tolerance _TOL_SCALE * max(1, inf-norm of a);
    for a stack (..., n, n), one tolerance per matrix."""
    return _per_matrix(_TOL_SCALE * np.maximum(
        1.0, np.abs(a).sum(axis=-1).max(axis=-1, initial=0.0)))


def sym_eig(a) -> EigResult:
    """Full eigendecomposition of a symmetric matrix (LAPACK, via eigh).

    Returns eigenvalues in ascending order with orthonormal eigenvectors as
    matching columns. Deterministic: identical input gives identical output.
    """
    return EigResult(*np.linalg.eigh(sym_matrix(a)))


def inv_sqrt(a) -> np.ndarray:
    """a^{-1/2} of a symmetric positive definite matrix, or of each of a
    stack (..., n, n), from sym_eig: V diag(1/sqrt(values)) V'."""
    values, vectors = sym_eig(a)
    scale = np.zeros(vectors.shape)
    diagonal = np.arange(values.shape[-1])
    scale[..., diagonal, diagonal] = 1.0 / np.sqrt(values)
    return vectors @ scale @ vectors.swapaxes(-1, -2)


def _per_matrix(values: np.ndarray):
    """A float for one matrix, else the array of one value per matrix."""
    return values if values.ndim else float(values)


def min_eig(a):
    return _per_matrix(np.linalg.eigvalsh(sym_matrix(a))[..., 0])


def max_eig(a) -> float:
    return float(np.linalg.eigvalsh(sym_matrix(a))[-1])


def quad_form(x, m=None):
    """x' m x (x' x when m is None): a float for one vector, or (P,) values
    for vectors stacked as (P, n). Each value comes from the same BLAS
    vector-matrix and dot calls that x_p @ m @ x_p makes."""
    x = np.asarray(x, dtype=float)
    row = x[..., None, :]
    if m is not None:
        row = row @ m
    q = (row @ x[..., :, None])[..., 0, 0]
    return q if q.ndim else float(q)


def is_psd(a, tol: float | None = None):
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
    c_eigs = np.linalg.eigvalsh(c)
    c_scale = max(1.0, float(np.max(np.abs(c_eigs))))
    if float(np.min(np.abs(c_eigs))) <= 1e-12 * c_scale:
        raise SingularBlockError("trailing block is singular to working precision")
    schur = a - bt @ np.linalg.solve(c, bt.T)
    return sym_matrix(0.5 * (schur + schur.T))
