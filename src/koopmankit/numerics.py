"""Dense linear algebra with fixed ordering and normalization conventions.

All routines validate inputs eagerly (finite entries, matching shapes) and
return arrays in a deterministic layout so downstream spectral quantities are
reproducible:

* eigenvalues sorted by descending real part, ties by descending imaginary
  part, which keeps complex-conjugate pairs adjacent (positive imaginary
  member first);
* eigenvectors scaled to unit 2-norm with the largest-magnitude component
  rotated to the positive real axis;
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
    return arr.astype(float)


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


def svd(a):
    """Singular value decomposition a = U @ diag(s) @ V.T (economy size).

    Returns (U, s, V) with singular values in descending order; note V, not
    its transpose, so reconstruction uses V.T.
    """
    a = as_matrix(a, "a")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise NumericsError(f"svd did not converge: {exc}") from exc
    return u, s, vh.conj().T


def pinv(a):
    """Moore-Penrose pseudoinverse with relative singular-value cutoff ``DEFAULT_RCOND``."""
    u, s, v = svd(a)
    cutoff = DEFAULT_RCOND * (s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return v @ (inv[:, None] * u.conj().T)


@dataclass
class EigenPairSet:
    """Right and left eigenpairs of a square matrix under fixed conventions.

    ``right_vectors`` holds eigenvectors as columns; ``left_vectors`` holds
    row vectors xi such that xi @ K = eigenvalue * xi, matched entry-for-entry
    to ``eigenvalues``. Both are unit 2-norm with the sign convention applied.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def __len__(self):
        return self.eigenvalues.size

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


def _sorted_eig(mat):
    try:
        w, v = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise NumericsError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real))
    return w[order], v[:, order]


def eig(k):
    """Eigen-decomposition of a square matrix as an :class:`EigenPairSet`.

    Left eigenvectors are computed from the transpose (xi @ K = lambda * xi
    iff K.T @ xi.T = lambda * xi.T) and matched to the right eigenvalues by
    nearest complex distance.
    """
    k = as_matrix(k, "k")
    if k.shape[0] != k.shape[1]:
        raise ValueError(f"matrix must be square, got shape {k.shape}")
    w, v = _sorted_eig(k)
    wl, vl = _sorted_eig(k.T)

    # Greedy matching of the transpose's eigenvalues onto w. For a real matrix
    # the two sorted lists usually coincide; matching guards against LAPACK
    # returning conjugate pairs in a different order.
    used = np.zeros(len(wl), dtype=bool)
    left_rows = np.zeros_like(v.T)
    for i, lam in enumerate(w):
        gaps = np.where(used, np.inf, np.abs(wl - lam))
        j = int(np.argmin(gaps))
        used[j] = True
        left_rows[i] = vl[:, j]

    right = np.column_stack([_canonical_phase(v[:, i]) for i in range(len(w))])
    left = np.vstack([_canonical_phase(left_rows[i]) for i in range(len(w))])
    return EigenPairSet(eigenvalues=w, right_vectors=right, left_vectors=left)
