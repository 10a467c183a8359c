"""The benchmark registry: each named system of the paper, known in one place.

An entry holds a system's builder and defaults, its default start, horizon and
identification training starts, and its closed-form lift. This module sits
above every numerical module, so builders and lifts call ``dynamics``,
``lifting`` and ``spectral`` directly; only ``cli`` and the package namespace
import it.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (CONTINUOUS, DISCRETE, PolySystem, _manifold_couplings, _slow_manifold_equations,
                       _tu_couplings, slow_manifold_field)
from .lifting import carleman_center, carleman_logistic, slow_manifold_lift_ct, slow_manifold_lift_dt, tu_lift
from .polynomials import Polynomial
from .spectral import rotate_model, rotation_matrix

_PARABOLA = {2: 1.0}  # P(x1) = x1^2


def _exp_neg_inv(x):
    """exp(-1/x), 0 at x = 0: d/dt exp(-1/x) = exp(-1/x) along dx/dt = x^2; x < 0 raises."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("exp_neg_inv is undefined for negative arguments")
    with np.errstate(divide="ignore"):  # -1/0 = -inf, and exp(-inf) = 0
        return np.exp(-1.0 / np.abs(x))  # abs: -1/-0.0 would be +inf


def _slow_manifold(poly, time_kind=CONTINUOUS, input_map=None):
    """Builder and exact lift of the slow-manifold system on x2 = P(x1), both from the one ``poly``."""
    make = slow_manifold_lift_ct if time_kind == CONTINUOUS else slow_manifold_lift_dt

    def builder(p):
        couplings = _manifold_couplings(p["lambda"], poly, time_kind)
        equations = _slow_manifold_equations(p["mu"], p["lambda"], couplings)
        return PolySystem(2, time_kind, equations, params=p, input_map=input_map)

    return {"builder": builder, "lift": lambda p, rank: make(p["mu"], p["lambda"], poly), "manifold": poly}


def _build_tu_map(p):
    lam, mu = p["lambda"], p["mu"]
    return PolySystem(2, DISCRETE, _slow_manifold_equations(lam, mu, _tu_couplings(lam, mu)), params=p)


def _build_logistic(p):
    r = p["r"]
    eq = Polynomial(1, {(1,): r, (2,): -r})
    return PolySystem(1, DISCRETE, (eq,), params=p)


def _build_center_manifold(p):
    return PolySystem(1, CONTINUOUS, (Polynomial(1, {(2,): 1.0}),), params=p)


def _build_rotated_quad(p):
    # coordinates (eta, xi) = T(angle) x for the quad-manifold field; the
    # transform is spectral.rotation_matrix, so the rotated data and the
    # rotated model line up.
    t = rotation_matrix(p["angle"])
    tinv = np.linalg.inv(t)
    base = slow_manifold_field(p["mu"], p["lambda"], _PARABOLA)
    old_vars = [Polynomial(2, {(1, 0): tinv[i, 0], (0, 1): tinv[i, 1]}) for i in range(2)]
    substituted = [eq.compose(old_vars) for eq in base]
    eqs = tuple(
        sum((t[i, j] * substituted[j] for j in range(2)), Polynomial.zero(2))
        for i in range(2)
    )
    return PolySystem(2, CONTINUOUS, eqs, params=p)


def _lift_rotated_quad(p, rank):
    return rotate_model(slow_manifold_lift_ct(p["mu"], p["lambda"], _PARABOLA), p["angle"])


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
#   lift(params, rank) -> the closed-form lifted model;
#   "ranked"    True where the lift is a Carleman truncation that rank sets;
#   "manifold"  P of x2 = P(x1), where the fast state relaxes: the slow manifold only in the fast limit;
#   "eigenfunctions"  name -> (eigenvalue, phi) for a closed-form scalar
#               eigenfunction phi of x1 that the lift does not hold.
_REGISTRY = {
    "quad_manifold": {
        **_slow_manifold(_PARABOLA),
        "defaults": {"mu": -0.05, "lambda": -1.0},
        "description": "continuous 2-state flow with attracting quadratic slow manifold x2 = x1^2",
        "x0": (1.5, -1.0),
        "horizon": 10.0,
        "training": (_FLOW_STARTS, 10.0),
    },
    "quartic_manifold": {
        **_slow_manifold({2: -2.0, 4: 1.0}),
        "defaults": {"mu": -0.05, "lambda": -1.0},
        "description": "continuous 2-state flow whose slow manifold is the quartic x2 = x1^4 - 2*x1^2",
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
        "lift": lambda p, rank: tu_lift(p["lambda"], p["mu"]),
        "defaults": {"lambda": 0.9, "mu": 0.5},
        "description": "discrete quadratic map x1 -> lambda*x1, x2 -> mu*x2 + (lambda^2 - mu)*x1^2",
        "x0": (1.0, 1.0),
        "training": (_MAP_STARTS, 40),
    },
    "logistic": {
        "builder": _build_logistic,
        "lift": lambda p, rank: carleman_logistic(p["r"], rank),
        "ranked": True,
        "defaults": {"r": 3.5},
        "description": "discrete 1-state logistic map x -> r*x*(1 - x)",
        "x0": (0.5,),
        "training": (tuple((v,) for v in np.linspace(0.1, 0.8, 8)), 40),
    },
    "center_manifold": {
        "builder": _build_center_manifold,
        "lift": lambda p, rank: carleman_center(rank),
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
