"""Dense linear algebra with fixed ordering and normalization conventions.

All routines validate inputs eagerly (finite entries, matching shapes) and
return arrays in a deterministic layout so downstream spectral quantities are
reproducible:

* eigenvalues sorted by descending real part, ties by descending imaginary
  part, which keeps complex-conjugate pairs adjacent (positive imaginary
  member first);
* eigenvectors scaled to unit 2-norm with the largest-magnitude component
  rotated to the positive real axis, each from the one decomposition that
  gave its eigenvalue (left eigenvectors of K come from eig(K.T));
* rank decisions use the fixed relative cutoff ``DEFAULT_RCOND`` = 1e-12
  times the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericsError

DEFAULT_RCOND = 1e-12


def as_matrix(a, name):
    """Validate and return a 2-D float (or complex) array with finite entries."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.iscomplexobj(arr):
        return arr.astype(complex)
    return np.asarray(arr, dtype=float)  # no copy of a float64 input


def lstsq(a, b):
    """Minimum-norm least-squares solution of a @ x = b via SVD.

    Singular values below ``DEFAULT_RCOND`` times the largest are treated as zero.
    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    a = as_matrix(a, "a")
    b_arr = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b_arr)):
        raise ValueError("b contains non-finite entries")
    if b_arr.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: a has {a.shape[0]} rows, b has {b_arr.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(a, b_arr, rcond=DEFAULT_RCOND)
    return x


@dataclass
class EigenPairSet:
    """Eigenpairs of a square matrix under fixed conventions.

    ``right_vectors`` holds unit 2-norm eigenvectors as columns, column i
    belonging to ``eigenvalues[i]``, with the sign convention applied.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray

    def closest(self, value):
        """Index of the eigenvalue nearest ``value``; (index, separation_ok)."""
        gaps = np.abs(self.eigenvalues - value)
        order = np.argsort(gaps)
        idx = int(order[0])
        scale = max(1.0, abs(value))
        unique = gaps.size == 1 or gaps[order[1]] - gaps[order[0]] > 1e-8 * scale
        return idx, unique


def _canonical_phase(vec):
    """Unit norm, then rotate so the largest-magnitude component is real positive."""
    norm = np.linalg.norm(vec)
    if norm == 0:
        return vec
    v = vec / norm
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if pivot != 0:
        v = v * (np.conj(pivot) / abs(pivot))
    return v


def eig(k):
    """Eigenvalues and right eigenvectors of a square matrix as an :class:`EigenPairSet`.

    One decomposition answers one question. A left eigenvector of K
    (xi @ K = lambda * xi) is a right eigenvector of K.T, so ``eig(k.T)``
    gives the left pairs; no eigenvalue is matched across two decompositions.
    """
    k = as_matrix(k, "k")
    if k.shape[0] != k.shape[1]:
        raise ValueError(f"matrix must be square, got shape {k.shape}")
    try:
        w, v = np.linalg.eig(k)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise NumericsError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real))
    right = np.column_stack([_canonical_phase(v[:, i]) for i in order])
    return EigenPairSet(eigenvalues=w[order], right_vectors=right)


def format_eigenvalue(lam):
    """``lam`` as text: its real part, then its imaginary part when |imag| > 1e-12."""
    return f"{lam.real:g}{f'{lam.imag:+g}j' if abs(lam.imag) > 1e-12 else ''}"
