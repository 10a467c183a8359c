"""Koopman eigenfunctions and spectral geometry of lifted models.

Left eigenvectors of a finite advance matrix give eigenfunction coordinates:
if xi K = lambda xi then phi(x) = xi . Theta(x) satisfies the eigenfunction
relation for the model's time kind. Each eigen question reads one
decomposition (eigenfunctions that of K.T, whose right eigenvectors are K's
left ones) and locates an eigenvalue by value, never by position in the
returned ordering, and never by pairing eigenvalues of two decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, Trajectory
from .exceptions import DegenerateSpectrum
from .identification import _sampled_advance
from .lifting import KoopmanModel, ObservableLibrary, eval_library
from .polynomials import Polynomial


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


# ---------------------------------------------------------------------------
# coordinate changes of the quadratic-manifold model
# ---------------------------------------------------------------------------

def _quad_shape(model: KoopmanModel):
    """Extract (mu, lam) after checking that ``model`` is slow_manifold_lift_ct(mu, lam, {2: 1.0}):
    the continuous lift on the unit monomials x1, x2, x1^2 with
    K = [[mu, 0, 0], [0, lam, -lam], [0, 0, 2 mu]]."""
    quad_library = [{(1, 0): 1.0}, {(0, 1): 1.0}, {(2, 0): 1.0}]
    if model.time_kind != CONTINUOUS or [obs.terms for obs in model.library.observables] != quad_library:
        raise ValueError("unsupported model shape: expected the continuous lift on [x1, x2, x1^2]")
    mu, lam = model.K[0, 0], model.K[1, 1]
    quad = np.array([[mu, 0.0, 0.0], [0.0, lam, -lam], [0.0, 0.0, 2.0 * mu]])
    if not np.allclose(model.K, quad, rtol=1e-12, atol=1e-12 * max(1.0, abs(mu), abs(lam))):
        raise ValueError("unsupported model shape: matrix is not the quadratic-manifold lift")
    return mu, lam


def rotation_matrix(angle):
    """Coordinate change to a frame tilted by ``angle``.

    (eta, xi) = T x with T = (cos a + sin a) * [[cos a, sin a], [sin a, -cos a]],
    scaled so 45 degrees gives the classic sum/difference coordinates
    eta = x1 + x2, xi = x1 - x2. Angle 0 is the identity.
    """
    if angle == 0.0:
        return np.eye(2)
    c, s = np.cos(angle), np.sin(angle)
    scale = c + s
    if abs(scale) < 1e-12:
        raise ValueError("angle yields a singular coordinate change")
    return scale * np.array([[c, s], [s, -c]])


def rotate_model(model: KoopmanModel, angle) -> KoopmanModel:
    """Re-express the quadratic-manifold lift in tilted coordinates.

    The new model lives on (eta, xi, phi) where (eta, xi) = T(angle) x and
    phi = x2 - b x1^2 (b = lam/(lam - 2 mu)) is the eigenfunction completing
    the invariant triple; at 45 degrees this is the sum/difference form with
    advance matrix [[3mu/2, -mu/2, lam-2mu], [-mu/2, 3mu/2, -(lam-2mu)],
    [0, 0, lam]]. Angle 0 returns the model unchanged.
    """
    mu, lam = _quad_shape(model)
    if angle == 0.0:
        return KoopmanModel(model.library, model.K.copy(), model.time_kind)
    if lam == 2 * mu:
        raise DegenerateSpectrum("lam = 2*mu: the x2 eigenfunction degenerates")
    t = rotation_matrix(angle)
    tinv = np.linalg.inv(t)
    b = lam / (lam - 2 * mu)

    k = np.zeros((3, 3))
    k[0, :2] = np.array([t[0, 0] * mu, 2 * mu * t[0, 1]]) @ tinv
    k[0, 2] = t[0, 1] * (lam - 2 * mu)
    k[1, :2] = np.array([t[1, 0] * mu, 2 * mu * t[1, 1]]) @ tinv
    k[1, 2] = t[1, 1] * (lam - 2 * mu)
    k[2, 2] = lam

    # old state in new coordinates, then phi = x2 - b x1^2 as a polynomial in (eta, xi)
    x1p = Polynomial(2, {(1, 0): tinv[0, 0], (0, 1): tinv[0, 1]})
    x2p = Polynomial(2, {(1, 0): tinv[1, 0], (0, 1): tinv[1, 1]})
    phi = x2p - b * (x1p ** 2)
    lib = ObservableLibrary(2, (Polynomial.variable(2, 0), Polynomial.variable(2, 1), phi))
    return KoopmanModel(lib, k, CONTINUOUS)


def slow_subspace_slope(model: KoopmanModel) -> float:
    """Slope of the slow Koopman subspace in the (x2, x1^2) plane.

    Locates the eigenvalue 2*mu of the quadratic-manifold lift by value and
    returns v3/v2 of its right eigenvector, which is (lam - 2 mu)/lam. Raises
    :class:`DegenerateSpectrum` when that eigenvalue is not simple (the
    lam = 2*mu collision) or the eigenvector's x2 component vanishes.
    """
    mu, lam = _quad_shape(model)
    target = 2 * mu
    pairs = numerics.eig(model.K)
    idx, unique = pairs.closest(target)
    gap = abs(pairs.eigenvalues[idx] - target)
    if gap > 1e-8 * max(1.0, abs(target)):
        raise DegenerateSpectrum(f"no eigenvalue within tolerance of 2*mu = {target:g}")
    if not unique:
        raise DegenerateSpectrum(
            f"eigenvalue 2*mu = {target:g} is not simple; the slow subspace is ambiguous"
        )
    vec = pairs.right_vectors[:, idx]
    v2, v3 = vec[1], vec[2]
    if abs(v2) < 1e-12 * np.linalg.norm(vec):
        raise DegenerateSpectrum("slow-subspace eigenvector has no x2 component")
    ratio = v3 / v2
    return float(ratio.real)
