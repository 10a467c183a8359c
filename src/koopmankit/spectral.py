"""Koopman eigenfunctions and spectral geometry of lifted models.

Left eigenvectors of a finite advance matrix give eigenfunction coordinates:
if xi K = lambda xi then phi(x) = xi . Theta(x) satisfies the eigenfunction
relation for the model's time kind. Quantities tied to a particular
eigenvalue are always located by matching the eigenvalue, never by position
in the returned ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, Trajectory
from .exceptions import DegenerateSpectrum
from .identification import _sampled_advance
from .lifting import KoopmanModel, ObservableLibrary, _library_to_json, eval_library
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
        """Real polynomial form (requires a polynomial library, real coeffs)."""
        if not self.library.is_polynomial():
            raise ValueError("not a polynomial eigenfunction")
        if np.max(np.abs(self.coeffs.imag)) > 1e-10 * max(1.0, np.max(np.abs(self.coeffs))):
            raise ValueError("coefficients are not real to tolerance")
        return self.library.linear_combination(self.coeffs.real)


def eigenfunctions(model: KoopmanModel):
    """All eigenfunctions of the model, ordered like the eigenvalues."""
    pairs = numerics.eig(model.K)
    return [
        Eigenfunction(eigenvalue=pairs.eigenvalues[i], coeffs=pairs.left_vectors[i],
                      library=model.library, time_kind=model.time_kind)
        for i in range(len(pairs))
    ]


def verify_eigenfunction(fn: Eigenfunction, traj: Trajectory) -> float:
    """Relative RMS defect of the eigenfunction relation along a trajectory.

    Continuous: ||d/dt phi - lambda phi|| with the derivative taken by finite
    differences; discrete: ||phi_{k+1} - lambda phi_k||. Normalized by the RMS
    magnitude of phi; a trajectory on which phi vanishes identically is
    uninformative and raises.
    """
    theta = eval_library(fn.library, traj.states.T)
    values = fn.coeffs @ theta
    scale = float(np.sqrt(np.mean(np.abs(values) ** 2)))
    # compare against the observable magnitudes the combination was built
    # from: a trajectory started on the zero set of phi produces values that
    # are pure rounding noise, which must not masquerade as signal
    floor = float(np.abs(fn.coeffs[:, None] * theta).max())
    if scale <= 1e-12 * max(floor, 1e-300):
        raise ValueError("eigenfunction vanishes along this trajectory; nothing to verify")
    now, advance, _ = _sampled_advance(values, traj.times, fn.time_kind)
    defect = advance - fn.eigenvalue * now
    return float(np.sqrt(np.mean(np.abs(defect) ** 2))) / scale


# ---------------------------------------------------------------------------
# coordinate changes of the quadratic-manifold model
# ---------------------------------------------------------------------------

def _quad_shape(model: KoopmanModel):
    """Extract (mu, lam) after checking the exact quad-lift structure."""
    lib = model.library
    if model.time_kind != CONTINUOUS or not lib.is_polynomial() \
            or [o.terms for o in lib.observables] != [{(1, 0): 1.0}, {(0, 1): 1.0}, {(2, 0): 1.0}]:
        raise ValueError("unsupported model shape: expected the continuous lift on [x1, x2, x1^2]")
    k = model.K
    mu = k[0, 0]
    lam = k[1, 1]
    pattern = np.array([[mu, 0.0, 0.0], [0.0, lam, -lam], [0.0, 0.0, 2 * mu]])
    if not np.allclose(k, pattern, rtol=1e-12, atol=1e-12 * max(1.0, abs(mu), abs(lam))):
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
        return KoopmanModel(model.library, model.K.copy(), model.time_kind,
                            state_rows=model.state_rows)
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
    lib = ObservableLibrary(2, (Polynomial.variable(2, 0), Polynomial.variable(2, 1), phi),
                            state_inclusive=True)
    return KoopmanModel(lib, k, CONTINUOUS, state_rows=(0, 1))


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def eigenfunction_to_json(fn: Eigenfunction) -> dict:
    return {
        "eigenvalue": [fn.eigenvalue.real, fn.eigenvalue.imag],
        "coeffs": [[c.real, c.imag] for c in fn.coeffs],
        "time_kind": fn.time_kind,
        "library": _library_to_json(fn.library),
    }
