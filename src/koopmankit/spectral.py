"""Koopman eigenfunctions and spectral geometry of lifted models.

Left eigenvectors of a finite advance matrix give eigenfunction coordinates:
if xi K = lambda xi then phi(x) = xi . Theta(x) satisfies the eigenfunction
relation for the model's time kind. Each eigen question reads one
decomposition (eigenfunctions that of K.T, whose right eigenvectors are K's
left ones) and locates an eigenvalue by value, never by position in the
returned ordering, and never by pairing eigenvalues of two decompositions.
The module knows no particular system; :mod:`koopmankit.registry` knows them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import Trajectory
from .identification import _sampled_advance
from .lifting import KoopmanModel, ObservableLibrary, eval_library


@dataclass
class Eigenfunction:
    """phi(x) = coeffs . Theta(x) with K-eigenvalue ``eigenvalue``.

    Continuous source: d/dt phi = eigenvalue * phi along trajectories;
    discrete source: phi(x_{k+1}) = eigenvalue * phi(x_k).
    """

    eigenvalue: complex
    coeffs: np.ndarray
    library: ObservableLibrary
    time_kind: str

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        if c.size != len(self.library):
            raise ValueError("coefficient count must match the library")
        self.coeffs = c
        self.eigenvalue = complex(self.eigenvalue)

    def __call__(self, x):
        return self.coeffs @ eval_library(self.library, x)

    def as_polynomial(self):
        """Real polynomial form (requires real coeffs)."""
        if np.max(np.abs(self.coeffs.imag)) > 1e-10 * max(1.0, np.max(np.abs(self.coeffs))):
            raise ValueError("coefficients are not real to tolerance")
        return self.library.linear_combination(self.coeffs.real)


def eigenfunctions(model: KoopmanModel):
    """All eigenfunctions, ordered like the eigenvalues; their coeffs are K.T's right eigenvectors."""
    pairs = numerics.eig(model.K.T)
    return [Eigenfunction(eigenvalue=lam, coeffs=xi, library=model.library, time_kind=model.time_kind)
            for lam, xi in zip(pairs.eigenvalues, pairs.right_vectors.T)]


def verify_eigenfunction(fn: Eigenfunction, traj: Trajectory) -> float:
    """Relative RMS defect of the eigenfunction relation along a trajectory.

    Continuous: ||d/dt phi - lambda phi|| with the derivative taken by finite
    differences; discrete: ||phi_{k+1} - lambda phi_k||. Normalized by the RMS
    magnitude of phi; a trajectory on which phi vanishes identically is
    uninformative and raises.
    """
    theta = eval_library(fn.library, traj.states.T)
    # compare against the observable magnitudes the combination was built
    # from: a trajectory started on the zero set of phi produces values that
    # are pure rounding noise, which must not masquerade as signal
    floor = float(np.abs(fn.coeffs[:, None] * theta).max())
    return _relative_defect(fn.coeffs @ theta, fn.eigenvalue, traj.times, fn.time_kind, floor)


def eigen_residual(values, eigenvalue, times, time_kind) -> float:
    """The defect :func:`verify_eigenfunction` measures, for any phi sampled at ``times``.

    ``values`` holds phi at each time; values that vanish identically raise ``ValueError``.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != (len(times),):
        raise ValueError(f"values has shape {values.shape}; expected one per time, ({len(times)},)")
    floor = float(np.abs(values).max())
    return _relative_defect(values, complex(eigenvalue), times, time_kind, floor)


def _relative_defect(values, eigenvalue, times, time_kind, floor):
    """RMS of advance - eigenvalue * value over RMS of value; an RMS under 1e-12 * floor raises."""
    scale = float(np.sqrt(np.mean(np.abs(values) ** 2)))
    if scale <= 1e-12 * max(floor, 1e-300):
        raise ValueError("eigenfunction vanishes along this trajectory; nothing to verify")
    now, advance, _ = _sampled_advance(values, times, time_kind)
    defect = advance - eigenvalue * now
    return float(np.sqrt(np.mean(np.abs(defect) ** 2))) / scale
