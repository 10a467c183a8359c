"""The benchmark registry: each named system of the paper, known in one place.

An entry holds a system's builder and defaults, its default start, horizon and
identification training starts, and its lift, read off the system the caller
built. The slow-manifold family lives here whole: its equations, the field
:func:`slow_manifold_field` and exact lift :func:`slow_manifold_lift_ct`, and,
for the parabola x2 = x1^2, the tilted coordinates (:func:`rotation_matrix`)
and, from the untilted registry flow onto it that the caller built, the lift on
them read off the tilted field (:func:`rotate_model`) and the slow subspace
(:func:`slow_subspace_slope`). So do the Carleman truncations
:func:`carleman_logistic` and :func:`carleman_center`; every lift is read off
a field by ``field_lift``. The module calls only the public names of
``dynamics`` and ``lifting``; only ``cli`` and the package namespace import it.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .dynamics import CONTINUOUS, DISCRETE, PolySystem
from .exceptions import DegenerateSpectrum
from .lifting import KoopmanModel, ObservableLibrary, field_lift, monomials
from .polynomials import Polynomial

_PARABOLA = {2: 1.0}  # P(x1) = x1^2


def _exp_neg_inv(x):
    """exp(-1/x), 0 at x = 0: d/dt exp(-1/x) = exp(-1/x) along dx/dt = x^2; x < 0 raises."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("exp_neg_inv is undefined for negative arguments")
    with np.errstate(divide="ignore"):  # -1/0 = -inf, and exp(-inf) = 0
        return np.exp(-1.0 / np.abs(x))  # abs: -1/-0.0 would be +inf


def _slow_manifold_equations(mu, lam, couplings):
    """Equations x1' = mu*x1, x2' = lam*x2 + sum c_N*x1^N, a flow's or a map's, of the slow-manifold
    family member (mu, lam, couplings {N: c_N}, N whole, >= 2 and ascending); ``field_lift``
    reads the member's exact lift off them on [x1, x2, x1^N...]."""
    x2 = {(0, 1): lam, **{(n, 0): c for n, c in couplings.items()}}
    return Polynomial(2, {(1, 0): mu}), Polynomial(2, x2)


def _relaxing_equations(mu, lam, poly, time_kind):
    """Equations of the member whose fast state relaxes onto x2 = P(x1), P = {N: a_N}: its
    couplings are -lam*a_N in the flow x2' = lam*(x2 - P(x1)), and (1 - lam)*a_N in the map
    x2 -> lam*x2 + (1 - lam)*P(x1)."""
    if not all(n >= 2 and n % 1 == 0 for n in poly):  # inf % 1 and NaN fail too
        raise ValueError("manifold polynomial exponents must be >= 2 and whole "
                         "(degree-1 terms belong to the linear part)")
    c = -lam if time_kind == CONTINUOUS else 1.0 - lam
    return _slow_manifold_equations(mu, lam, {int(n): c * float(a) for n, a in sorted(poly.items())})


def _slow_manifold_library(exponents):
    """[x1, x2, x1^N1, ...], the exponents N ascending: the invariant library of the
    slow-manifold family member whose couplings sit on those powers of x1."""
    return ObservableLibrary(2, ((1, 0), (0, 1), *((n, 0) for n in sorted(exponents))))


def slow_manifold_field(mu, lam, poly):
    """Equations of dx1/dt = mu*x1, dx2/dt = lam*(x2 - P(x1)).

    ``poly`` maps exponent N -> coefficient a for P(x) = sum a*x^N; the
    field and the lift accept the same P, whole exponents N >= 2.
    """
    return _relaxing_equations(mu, lam, poly, CONTINUOUS)


def slow_manifold_lift_ct(mu, lam, poly):
    """Exact lift of dx1/dt = mu*x1, dx2/dt = lam*(x2 - P(x1)), P = {exponent: coefficient}, on
    [x1, x2, x1^N1, ...], exponents ascending: K = diag(mu, lam, mu*N1, ...) plus row-2 couplings
    -a_i*lam, read off the field, where an exactly zero entry is +0.0."""
    system = PolySystem(2, CONTINUOUS, slow_manifold_field(mu, lam, poly))
    return field_lift(_slow_manifold_library(poly), system)


def _slow_manifold(poly, time_kind=CONTINUOUS, input_map=None):
    """Builder and exact lift of the member relaxing onto x2 = P(x1), both from the one ``poly``."""
    def builder(p):
        equations = _relaxing_equations(p["mu"], p["lambda"], poly, time_kind)
        return PolySystem(2, time_kind, equations, params=p, input_map=input_map)

    library = _slow_manifold_library(poly)
    return {"builder": builder, "lift": lambda system, rank: field_lift(library, system),
            "manifold": poly}


def _build_tu_map(p):
    """x1 -> lam*x1, x2 -> mu*x2 + (lam^2 - mu)*x1^2: the family's map (lam, mu, couplings
    {2: lam^2 - mu}), whose invariant manifold is exactly x2 = x1^2."""
    lam, mu = p["lambda"], p["mu"]
    return PolySystem(2, DISCRETE, _slow_manifold_equations(lam, mu, {2: lam * lam - mu}), params=p)


def _parabola_b(mu, lam):
    """b = lam/(lam - 2*mu) of phi = x2 - b*x1^2, the eigenfunction at lam of the flow relaxing onto
    x2 = x1^2; at lam = 2*mu phi degenerates, which raises :class:`DegenerateSpectrum`."""
    if lam == 2 * mu:
        raise DegenerateSpectrum("lam = 2*mu: the x2 eigenfunction degenerates")
    return lam / (lam - 2 * mu)


def _on_parabola(system):
    """True for a registry flow whose fast state relaxes onto x2 = x1^2, tilted or not."""
    return (isinstance(system, PolySystem) and system.time_kind == CONTINUOUS
            and _REGISTRY.get(system.name, {}).get("manifold") == _PARABOLA)


def _system_b(system):
    """:func:`_parabola_b` of a registry flow onto x2 = x1^2, tilted or not; None elsewhere and at lam = 2*mu."""
    p = system.params
    return _parabola_b(p["mu"], p["lambda"]) if _on_parabola(system) and p["lambda"] != 2 * p["mu"] else None


def _untilted_parabola(system):
    """(mu, lam) of an untilted registry flow onto x2 = x1^2; any other system, or a model, raises
    ``ValueError`` naming it."""
    if not (_on_parabola(system) and system.params.get("angle", 0.0) == 0.0):
        raise ValueError(f"{getattr(system, 'name', '') or type(system).__name__} is not an untilted "
                         "registry flow onto x2 = x1^2 (quad_manifold, kooc_demo, limitation, or "
                         "rotated_quad at angle 0)")
    return system.params["mu"], system.params["lambda"]


def rotation_matrix(angle):
    """Coordinate change to a frame tilted by ``angle``.

    (eta, xi) = T x with T = (cos a + sin a) * [[cos a, sin a], [sin a, -cos a]],
    scaled so 45 degrees gives the classic sum/difference coordinates
    eta = x1 + x2, xi = x1 - x2. Angle 0 is the identity.
    """
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    if angle == 0.0:
        return np.eye(2)
    c, s = np.cos(angle), np.sin(angle)
    scale = c + s
    if abs(scale) < 1e-12:
        raise ValueError("angle yields a singular coordinate change")
    return scale * np.array([[c, s], [s, -c]])


def rotate_model(system: PolySystem, angle) -> KoopmanModel:
    """The lift of the untilted registry flow ``system`` onto x2 = x1^2 in tilted coordinates
    (eta, xi) = T(angle) x, on (eta, xi, phi), phi = x2 - b x1^2, b = lam/(lam - 2 mu): :func:`field_lift`
    reads K off the tilted field of the system's (mu, lam), at 45 degrees [[3mu/2, -mu/2, lam-2mu],
    [-mu/2, 3mu/2, -(lam-2mu)], [0, 0, lam]] up to rounding. Angle 0 gives the lift on [x1, x2, x1^2]."""
    mu, lam = _untilted_parabola(system)
    return _lift_rotated_quad(_build_rotated_quad({"mu": mu, "lambda": lam, "angle": angle}), None)


def slow_subspace_slope(system: PolySystem) -> float:
    """Slope v3/v2 = (lam - 2 mu)/lam of the right eigenvector at 2*mu of the lift that the untilted
    registry flow ``system`` onto x2 = x1^2 reads off itself: the slow Koopman subspace in the (x2, x1^2)
    plane. Raises :class:`DegenerateSpectrum` if 2*mu is not simple (lam = 2*mu) or v2 vanishes."""
    mu, _ = _untilted_parabola(system)
    model = _REGISTRY[system.name]["lift"](system, None)
    target = 2 * mu
    pairs = numerics.eig(model.K)
    idx, unique = pairs.closest(target)
    gap = abs(pairs.eigenvalues[idx] - target)
    if gap > 1e-8 * max(1.0, abs(target)):
        raise DegenerateSpectrum(f"no eigenvalue within tolerance of 2*mu = {target:g}")
    if not unique:
        raise DegenerateSpectrum(f"eigenvalue 2*mu = {target:g} is not simple; "
                                 "the slow subspace is ambiguous")
    vec = pairs.right_vectors[:, idx]
    v2, v3 = vec[1], vec[2]
    if abs(v2) < 1e-12 * np.linalg.norm(vec):
        raise DegenerateSpectrum("slow-subspace eigenvector has no x2 component")
    return float((v3 / v2).real)


def _tilted_state(angle):
    """T = rotation_matrix(angle), and the state x = T^-1 (eta, xi) as polynomials in (eta, xi)."""
    tinv = np.linalg.inv(t := rotation_matrix(angle))
    return t, [Polynomial(2, {(1, 0): tinv[i, 0], (0, 1): tinv[i, 1]}) for i in range(2)]


def _build_rotated_quad(p):
    """The quad-manifold field in the coordinates (eta, xi) = T(angle) x that the lift tilts to."""
    t, old_vars = _tilted_state(p["angle"])
    substituted = [eq.compose(old_vars) for eq in slow_manifold_field(p["mu"], p["lambda"], _PARABOLA)]
    eqs = tuple(sum((t[i, j] * substituted[j] for j in range(2)), Polynomial.zero(2)) for i in range(2))
    return PolySystem(2, CONTINUOUS, eqs, params=p)


def _lift_rotated_quad(system, rank):
    """The tilted ``system``'s lift on (eta, xi, x2 - b*x1^2), read off its field; at angle 0 on [x1, x2, x1^2]."""
    p = system.params
    if p["angle"] == 0.0:
        return field_lift(_slow_manifold_library(_PARABOLA), system)
    x1, x2 = _tilted_state(p["angle"])[1]
    phi = x2 - _parabola_b(p["mu"], p["lambda"]) * (x1 ** 2)
    return field_lift(ObservableLibrary(2, ((1, 0), (0, 1), phi)), system)


def _build_logistic(p):
    r = p["r"]
    eq = Polynomial(1, {(1,): r, (2,): -r})
    return PolySystem(1, DISCRETE, (eq,), params=p)


def _build_center_manifold(p):
    return PolySystem(1, CONTINUOUS, (Polynomial(1, {(2,): 1.0}),), params=p)


def _carleman(system, rank):
    """The truncated Carleman lift of the one-state ``system`` on [x, x^2, ..., x^rank], read off
    the field; a rank below 1 raises ``ValueError``."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return field_lift(monomials(1, rank), system)


def carleman_logistic(r, rank):
    """Truncated Carleman matrix of the logistic map on [x, x^2, ..., x^rank], read off the field.

    Row n is (r x - r x^2)^n as the map's powers compose it, r^n times the
    alternating Pascal row at columns n..2n, with columns beyond the rank dropped.
    """
    return _carleman(_build_logistic({"r": r}), rank)


def carleman_center(rank):
    """Truncated Carleman generator of dx/dt = x^2 on [x, x^2, ..., x^rank], read off the field.

    Superdiagonal entry (i, i+1) is i; the matrix is nilpotent, so every
    truncation has determinant exactly zero.
    """
    return _carleman(_build_center_manifold({}), rank)


def _center_manifold_horizon(x0):
    """80% of the way to the blow-up time 1/x0 of dx/dt = x^2."""
    if not x0[0] > 0:
        raise ValueError(
            f"the default center_manifold horizon 0.8/x0 needs x0 > 0 (got {x0[0]:g}); "
            "give the horizon explicitly with --horizon"
        )
    return 0.8 / float(x0[0])


# identification training starts on a grid: flows reach |x| = 2, maps 1
_FLOW_STARTS = tuple((a, b) for a in (-2.0, -1.0, 0.0, 1.0, 2.0) for b in (-2.0, 2.0))
_MAP_STARTS = tuple((a, b) for a in (-1.0, -0.5, 0.0, 0.5, 1.0) for b in (-1.0, 1.0))

# Each entry is the one place that knows its system:
#   builder(params) -> PolySystem; "defaults" and "description";
#   "x0"        the default start;
#   "horizon"   the default end time of a flow, or a rule on x0;
#   "training"  (identification starts, their horizon for a flow or step
#               count for a map);
#   lift(system, rank) -> the lifted model of the system the builder built, read off its field;
#   "ranked"    True where the lift is a Carleman truncation that rank sets;
#   "manifold"  P of x2 = P(x1), where the fast state relaxes: the slow manifold only in the fast limit;
#   "eigenfunctions"  name -> (eigenvalue, phi) for a closed-form scalar
#               eigenfunction phi of x1 that the lift does not hold.
_REGISTRY = {
    "quad_manifold": {
        **_slow_manifold(_PARABOLA),
        "defaults": {"mu": -0.05, "lambda": -1.0},
        "description": "continuous 2-state flow with attracting quadratic slow manifold x2 = lambda/(lambda - 2*mu)*x1^2",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "quartic_manifold": {
        **_slow_manifold({2: -2.0, 4: 1.0}),
        "defaults": {"mu": -0.05, "lambda": -1.0},
        "description": "continuous 2-state flow whose slow manifold is the quartic "
                       "x2 = lambda/(lambda - 4*mu)*x1^4 - 2*lambda/(lambda - 2*mu)*x1^2",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "discrete_manifold": {
        **_slow_manifold(_PARABOLA, time_kind=DISCRETE),
        "defaults": {"mu": 0.9, "lambda": 0.1},
        "description": "discrete 2-state map with slow manifold x2 = (1 - lambda)/(mu^2 - lambda)*x1^2 (mu slow, lambda fast)",
        "x0": (1.5, -1.0),
        "training": (_MAP_STARTS, 40),
    },
    "tu_map": {
        "builder": _build_tu_map,
        "lift": lambda system, rank: field_lift(_slow_manifold_library(_PARABOLA), system),
        "defaults": {"lambda": 0.9, "mu": 0.5},
        "description": "discrete quadratic map x1 -> lambda*x1, x2 -> mu*x2 + (lambda^2 - mu)*x1^2",
        "x0": (1.0, 1.0),
        "training": (_MAP_STARTS, 40),
    },
    "logistic": {
        "builder": _build_logistic,
        "lift": _carleman,
        "ranked": True,
        "defaults": {"r": 3.5},
        "description": "discrete 1-state logistic map x -> r*x*(1 - x)",
        "x0": (0.5,),
        "training": (tuple((v,) for v in np.linspace(0.1, 0.8, 8)), 40),
    },
    "center_manifold": {
        "builder": _build_center_manifold,
        "lift": _carleman,
        "ranked": True,
        "defaults": {},
        "description": "continuous 1-state flow dx/dt = x^2 (finite-time blow-up at t = 1/x0)",
        "x0": (0.5,),
        "horizon": _center_manifold_horizon,
        "training": (tuple((v,) for v in np.linspace(0.05, 0.45, 9)), 1.5),
        "eigenfunctions": {"exp_neg_inv": (1.0, _exp_neg_inv)},
    },
    "kooc_demo": {
        **_slow_manifold(_PARABOLA, input_map=((0.0,), (1.0,))),
        "defaults": {"mu": -0.1, "lambda": 1.0},
        "description": "actuated quad-manifold flow, input on x2 (B = [0, 1]); lifted-control benchmark",
        "x0": (-5.0, 5.0),
        "horizon": 5.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "limitation": {
        **_slow_manifold(_PARABOLA, input_map=((1.0,), (0.0,))),
        "defaults": {"mu": 0.1, "lambda": -1.0},
        "description": "actuated quad-manifold flow, input on x1 (B = [1, 0]); lifted x1^2 mode at 2*mu is uncontrollable",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "rotated_quad": {
        "builder": _build_rotated_quad,
        "lift": _lift_rotated_quad,
        "manifold": _PARABOLA,
        "defaults": {"mu": -0.05, "lambda": 1.0, "angle": float(np.pi / 4)},
        "description": "quad-manifold flow expressed in tilted coordinates (eta, xi) at the given angle",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
}


def registry_names():
    return sorted(_REGISTRY)


def registry_info():
    """Description strings keyed by system name."""
    return {key: _REGISTRY[key]["description"] for key in registry_names()}


def _canonical(name):
    key = str(name).replace("-", "_")
    if key not in _REGISTRY:
        raise ValueError(f"unknown system '{name}'; known: {', '.join(registry_names())}")
    return key


def builtin(name, **params):
    """Construct a registry system; keyword params override the defaults.

    ``lam`` is accepted as an alias for the reserved word ``lambda``.
    """
    key = _canonical(name)
    entry = _REGISTRY[key]
    merged = dict(entry["defaults"])
    for pname, value in params.items():
        pname = "lambda" if pname == "lam" else pname
        if pname not in merged:
            raise ValueError(f"system '{key}' takes no parameter '{pname}'")
        merged[pname] = float(value)
    system = entry["builder"](merged)
    system.name = key
    return system
