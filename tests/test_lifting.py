"""Tests for observable libraries, exact lifts, and Carleman truncation."""

import functools
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from koopmankit import (
    BlowUp,
    CONTINUOUS,
    DISCRETE,
    KoopmanModel,
    ObservableLibrary,
    Polynomial,
    PolySystem,
    builtin,
    carleman_center,
    carleman_logistic,
    closure_residual,
    eval_library,
    field_lift,
    integrate,
    iterate,
    load_model,
    monomials,
    project_states,
    propagate,
    registry_names,
    save_model,
    slow_manifold_field,
    slow_manifold_lift_ct,
)
from koopmankit.artifacts import _model_from_json, _model_to_json
from koopmankit.identification import MAX_ROUNDS
from koopmankit.lifting import _advances, _close
from koopmankit.registry import _REGISTRY, _exp_neg_inv

import _reference as ref


# ---------------------------------------------------------------------------
# observable libraries
# ---------------------------------------------------------------------------

def test_monomials_graded_order_without_constant():
    lib = monomials(2, 2)
    assert lib.names == ["x1", "x2", "x1^2", "x1*x2", "x2^2"]
    assert lib.state_inclusive
    lib3 = monomials(2, 3)
    assert lib3.names[5:] == ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3"]
    for dim in range(1, 5):
        for degree in range(1, 6):
            # brute force: every exponent tuple of each total degree, the
            # largest first exponent first
            oracle = [exps for total in range(1, degree + 1)
                      for exps in sorted(itertools.product(range(total + 1), repeat=dim),
                                         reverse=True)
                      if sum(exps) == total]
            lib = monomials(dim, degree)
            assert [obs.exponents() for obs in lib.observables] == oracle, (dim, degree)


def test_eval_library_matches_direct_monomials():
    lib = monomials(2, 3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(20, 2))
    vals = eval_library(lib, pts.T)
    assert vals.shape == (len(lib.names), 20)
    np.testing.assert_allclose(vals[0], pts[:, 0], rtol=1e-15)
    np.testing.assert_allclose(vals[4], pts[:, 1] ** 2, rtol=1e-15)
    np.testing.assert_allclose(vals[6], pts[:, 0] ** 2 * pts[:, 1], rtol=1e-14)


def test_named_observable_evaluation():
    """The registry's exp(-1/x) has the bits of np.exp(-1/x) for x > 0 and is 0 at x = 0."""
    assert _REGISTRY["center_manifold"]["eigenfunctions"]["exp_neg_inv"] == (1.0, _exp_neg_inv)
    x = np.array([0.25, 0.5, 2.0, 1e-3, 7.5])
    assert _exp_neg_inv(x).tobytes() == np.exp(-1.0 / x).tobytes()
    assert _exp_neg_inv(np.array([0.0, -0.0])).tolist() == [0.0, 0.0]
    assert _exp_neg_inv(np.array([0.0, 0.5]))[1] == np.exp(-2.0)


def test_the_named_observable_refuses_a_negative_argument():
    with pytest.raises(ValueError, match="exp_neg_inv is undefined for negative arguments"):
        _exp_neg_inv(np.array([0.5, -0.25]))


@pytest.mark.parametrize("entry", ["exp_neg_inv", "exp-neg-inv", "x1"])
def test_a_library_refuses_a_string_observable_by_name(entry):
    with pytest.raises(ValueError, match=f"observable '{entry}' is not a polynomial"):
        ObservableLibrary(1, ((1,), entry))


@pytest.mark.parametrize("dim, entries, expected", [
    (2, [(1, 0), (0, 1), (2, 0)], True),
    (2, [(1, 0), (0, 1)], True),
    (1, [(1,), (2,), (3,)], True),
    (2, [(0, 1), (1, 0)], False),
    (2, [(1, 0)], False),
    (1, [(2,), (1,)], False),
    (1, [Polynomial(1, {(1,): 2.0})], False),
])
def test_state_inclusion_is_read_off_the_entries(dim, entries, expected):
    lib = ObservableLibrary(dim, entries)
    assert lib.state_inclusive is expected
    with pytest.raises(AttributeError):
        lib.state_inclusive = not expected
    with pytest.raises(TypeError):
        ObservableLibrary(dim, entries, state_inclusive=expected)


def test_library_index_lookup():
    lib = monomials(2, 2)
    assert lib.names.index("x1^2") == 2
    with pytest.raises(ValueError):
        lib.names.index("x9")


# ---------------------------------------------------------------------------
# lifts read off the field: structure and exact closure
# ---------------------------------------------------------------------------

def test_quadratic_lift_matrix_structure():
    mu, lam = -0.05, 1.0
    model = slow_manifold_lift_ct(mu, lam, {2: 1.0})
    assert model.library.names == ["x1", "x2", "x1^2"]
    expected = np.array([[mu, 0.0, 0.0], [0.0, lam, -lam], [0.0, 0.0, 2 * mu]])
    np.testing.assert_array_equal(model.K, expected)


def _family_inputs(seed):
    """Seeded (mu, lam, P) with lam = 0 and lam = 1 among them, and zero P coefficients."""
    rng = np.random.default_rng(seed)
    inputs = []
    for i in range(24):
        lam = (0.0, 1.0, float(rng.normal(scale=2.0)))[i % 3]
        exps = sorted(rng.choice(np.arange(2, 7), size=rng.integers(1, 4), replace=False).tolist())
        poly = {n: float(rng.normal()) for n in exps}
        if i % 4 == 1:
            poly[exps[0]] = 0.0
        inputs.append((float(rng.normal()), lam, poly))
    return inputs


def _registry_model(name, **params):
    """The registry's lift of ``name`` at ``params`` over its defaults, at rank 4."""
    return _REGISTRY[name]["lift"](builtin(name, **params), 4)


def _map_member(mu, lam, poly):
    """The discrete family member x1 -> mu*x1, x2 -> lam*x2 + (1 - lam)*P(x1) and its
    lift on [x1, x2, x1^N1, ...], read off the map."""
    x2 = {(0, 1): lam, **{(n, 0): (1 - lam) * a for n, a in poly.items()}}
    system = PolySystem(2, DISCRETE, (Polynomial(2, {(1, 0): mu}), Polynomial(2, x2)))
    library = ObservableLibrary(2, ((1, 0), (0, 1), *((n, 0) for n in sorted(poly))))
    return field_lift(library, system), system


def test_quadratic_lift_closure_is_exactly_zero():
    for lam in (1.0, -1.0):
        model = slow_manifold_lift_ct(-0.05, lam, {2: 1.0})
        system = builtin("quad_manifold", mu=-0.05, lam=lam)
        assert closure_residual(model, system) == 0.0
    # K's bytes pin the sign of each zero: lam = 0 couples no x1^N, so those entries are +0.0
    for mu, lam, poly in _family_inputs(41):
        model = slow_manifold_lift_ct(mu, lam, poly)
        expected = ref.slow_manifold_lift(mu, lam, {n: -a * lam for n, a in poly.items()}, CONTINUOUS)
        assert model.K.tobytes() == expected.tobytes(), (mu, lam, poly)
        assert [o.exponents() for o in model.library.observables][2:] == [(n, 0) for n in sorted(poly)]
        system = PolySystem(2, CONTINUOUS, slow_manifold_field(mu, lam, poly))
        assert closure_residual(model, system) == 0.0
        for name, manifold in (("quad_manifold", {2: 1.0}), ("quartic_manifold", {4: 1.0, 2: -2.0})):
            lift = slow_manifold_lift_ct(mu, lam, manifold)
            assert closure_residual(lift, builtin(name, mu=mu, lam=lam)) == 0.0


def test_quartic_lift_closure_is_exactly_zero():
    # P(x) = x^4 - 2 x^2 needs both x1^2 and x1^4 in the library
    model = slow_manifold_lift_ct(-0.05, 1.0, {4: 1.0, 2: -2.0})
    assert model.library.names == ["x1", "x2", "x1^2", "x1^4"]
    system = builtin("quartic_manifold", mu=-0.05, lam=1.0)
    assert closure_residual(model, system) == 0.0
    # row 2 carries -a_i * lam for each polynomial term
    np.testing.assert_array_equal(model.K[1], [0.0, 1.0, 2.0, -1.0])
    assert model.K[2, 2] == -0.1
    assert model.K[3, 3] == -0.2


def test_discrete_lift_closure_is_exactly_zero():
    mu, lam = 0.9, 0.1
    model = _registry_model("discrete_manifold", mu=mu, lam=lam)
    system = builtin("discrete_manifold", mu=mu, lam=lam)
    assert closure_residual(model, system) == 0.0
    # x2 <- lam x2 + (1 - lam) a x1^2 family: row 2 coupling is a (1 - lam)
    assert model.K[1, 2] == (1 - lam) * 1.0
    assert model.K[2, 2] == mu**2
    # K's bytes pin the sign of each zero: lam = 1 couples no x1^N, so those entries are +0.0
    for mu, lam, poly in _family_inputs(42):
        model, system = _map_member(mu, lam, poly)
        expected = ref.slow_manifold_lift(mu, lam, {n: a * (1 - lam) for n, a in poly.items()},
                                          DISCRETE)
        assert model.K.tobytes() == expected.tobytes(), (mu, lam, poly)
        assert closure_residual(model, system) == 0.0
        lift = _registry_model("discrete_manifold", mu=mu, lam=lam)
        assert closure_residual(lift, builtin("discrete_manifold", mu=mu, lam=lam)) == 0.0


def test_tu_lift_structure_and_closure():
    lam, mu = 0.9, 0.5
    model = _registry_model("tu_map", lam=lam, mu=mu)
    expected = np.array(
        [[lam, 0.0, 0.0], [0.0, mu, lam**2 - mu], [0.0, 0.0, lam**2]]
    )
    np.testing.assert_array_equal(model.K, expected)
    assert model.time_kind == DISCRETE
    system = builtin("tu_map", lam=lam, mu=mu)
    assert closure_residual(model, system) == 0.0
    for mu, lam, _ in _family_inputs(43):  # lam = 0 makes lam^2 - mu exactly -mu
        model = _registry_model("tu_map", lam=lam, mu=mu)
        expected = ref.slow_manifold_lift(lam, mu, {2: lam * lam - mu}, DISCRETE)
        assert model.K.tobytes() == expected.tobytes(), (lam, mu)
        assert closure_residual(model, builtin("tu_map", lam=lam, mu=mu)) == 0.0


@pytest.mark.parametrize("name", ["quad_manifold", "quartic_manifold", "discrete_manifold",
                                  "kooc_demo", "limitation", "tu_map"])
def test_every_family_lift_is_the_reference_closed_form(name):
    """Each family entry's lift, read off its field, has the bytes of the closed form, +0.0
    wherever an entry is exactly zero; the inputs hold lam = 0 and lam = 1."""
    systems = [builtin(name)] + [builtin(name, mu=mu, lam=lam) for mu, lam, _ in _family_inputs(44)]
    for system in systems:
        mu, lam = system.params["mu"], system.params["lambda"]
        if name == "tu_map":  # x1 -> lam*x1, x2 -> mu*x2 + (lam^2 - mu)*x1^2
            expected = ref.slow_manifold_lift(lam, mu, {2: lam * lam - mu}, DISCRETE)
        else:
            scale = -lam if system.time_kind == CONTINUOUS else 1.0 - lam
            couplings = {n: scale * a for n, a in _REGISTRY[name]["manifold"].items()}
            expected = ref.slow_manifold_lift(mu, lam, couplings, system.time_kind)
        model = _registry_model(name, mu=mu, lam=lam)
        assert model.K.tobytes() == expected.tobytes(), (mu, lam)
        assert model.time_kind == system.time_kind


@pytest.mark.parametrize("rank", range(1, 17))
def test_the_carleman_closed_forms_are_the_field_read_off(rank):
    """The logistic builder, read off the field, is the binomial closed form bit for bit where
    r^n rounds as the composed powers do (+0.0 for every zero at r = 0), and within 4 eps of
    max|K| elsewhere; dx/dt = x^2's is its closed form always."""
    for r in (3.5, 3.0, 2.0, 1.5, -2.5, 4.0, 0.0):
        model = carleman_logistic(r, rank)
        assert model.K.tobytes() == ref.carleman_logistic(r, rank).tobytes(), r
        assert model.library == monomials(1, rank) and model.time_kind == DISCRETE
    for r in (3.7, 3.9, 0.7):
        closed, field = ref.carleman_logistic(r, rank), carleman_logistic(r, rank).K
        assert np.max(np.abs(closed - field)) <= 4 * np.finfo(float).eps * np.max(np.abs(closed)), r
    model = carleman_center(rank)
    assert model.K.tobytes() == ref.carleman_center(rank).tobytes()
    assert model.library == monomials(1, rank) and model.time_kind == CONTINUOUS


def test_a_carleman_rank_below_1_is_refused():
    for build in (lambda: carleman_logistic(3.5, 0), lambda: carleman_center(-1)):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            build()


def test_a_library_keeps_the_advances_of_the_last_field_it_was_advanced_along():
    """One library advanced along r = 3.5, 3.7 and 3.5 again reads each lift and residual with the
    bits of a fresh library; a flow and a map with equal equation terms get their own advances."""
    shared = monomials(1, 6)
    for r in (3.5, 3.7, 3.5):
        system = builtin("logistic", r=r)
        model, fresh = field_lift(shared, system), field_lift(monomials(1, 6), system)
        assert model.K.tobytes() == fresh.K.tobytes(), r
        for truncate in (False, True):
            residual = closure_residual(model, system, truncate=truncate)
            assert float.hex(residual) == float.hex(closure_residual(fresh, system, truncate=truncate))
            assert float.hex(residual) == float.hex(ref.closure_residual(model, system, truncate))
    square = (Polynomial(1, {(2,): 1.0}),)
    flow = field_lift(shared, PolySystem(1, CONTINUOUS, square)).K
    step = field_lift(shared, PolySystem(1, DISCRETE, square)).K
    assert flow.tobytes() == ref.carleman_center(6).tobytes()
    expected = np.zeros((6, 6))
    expected[[0, 1, 2], [1, 3, 5]] = 1.0  # x^n -> x^(2n), dropped beyond x^6
    assert step.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_a_field_lift_drops_exactly_its_truncation(rank):
    """On monomials(2, r), x2' = x1^2 - x2 sends x2^r to r*x1^2*x2^(r-1) - r*x2^r: the
    dropped terms have degree r + 1, and the largest coefficient is r."""
    system = builtin("quad_manifold")
    model = field_lift(monomials(2, rank), system)
    assert closure_residual(model, system) == float(rank)
    assert closure_residual(model, system, truncate=True) == 0.0


def test_a_field_lift_solves_k_c_equals_a_on_a_polynomial_basis():
    """On [x, x + x^2] along dx/dt = x^2, C = [[1, 0], [1, 1]] and A = [[0, 1], [0, 1]] (the x^3
    of x + x^2's advance is dropped), so K = A C^-1 exactly; the dropped term is the residual.
    A monomial with coefficient 2 divides its column of K by 2."""
    x = Polynomial.variable(1, 0)
    system = builtin("center_manifold")
    model = field_lift(ObservableLibrary(1, (x, x + x ** 2)), system)
    assert model.K.tobytes() == np.array([[-1.0, 1.0], [-1.0, 1.0]]).tobytes()
    assert closure_residual(model, system) == 2.0
    assert closure_residual(model, system, truncate=True) == 0.0
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for mu, lam in ((-0.05, -1.0), (-0.3, 2.0), (0.7, -0.1)):
        system = builtin("quad_manifold", mu=mu, lam=lam)
        model = field_lift(ObservableLibrary(2, (x1, x2, 2.0 * x1 ** 2)), system)
        assert model.K[1, 2] == -lam / 2 and model.K[2, 2] == 2 * mu
        assert closure_residual(model, system) == 0.0


def test_a_field_lift_refuses_a_dependent_library_and_another_dimension():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    system = builtin("quad_manifold")
    with pytest.raises(ValueError, match="observable x1 \\+ x2 is linearly dependent"):
        field_lift(ObservableLibrary(2, (x1, x2, x1 + x2)), system)
    with pytest.raises(ValueError, match="state dimension mismatch"):
        field_lift(monomials(1, 2), system)


def test_a_lift_is_c_ordered_so_propagate_rounds_as_the_reference_does():
    """propagate's products round by K's memory order: a Fortran-ordered K with the same entries
    moves its samples. Every lift read off a field is C-ordered, and the logistic Carleman lift
    propagates to the bits of the reference loop on the C-ordered closed form."""
    lifts = [_registry_model(name) for name in registry_names()]
    lifts += [carleman_logistic(3.5, rank) for rank in range(1, 17)]
    assert all(model.K.flags.c_contiguous for model in lifts)
    model = carleman_logistic(3.5, 4)
    closed = KoopmanModel(model.library, ref.carleman_logistic(3.5, 4), DISCRETE)
    lifted = propagate(model, [0.3], steps=20)
    assert lifted.states.tobytes() == ref.block_loop(closed, [0.3], 20)[1].tobytes()


def test_lift_state_appends_observables():
    model = slow_manifold_lift_ct(-0.05, 1.0, {2: 1.0})
    np.testing.assert_array_equal(eval_library(model.library, [1.5, -1.0]), [1.5, -1.0, 2.25])


def test_polynomial_exponents_must_be_at_least_two():
    # 2.5 would otherwise truncate to 2 and overwrite the x1^2 coefficient
    # inf and NaN would otherwise escape int() as OverflowError and a bare ValueError
    for poly in ({1: 2.0}, {3: 1.0, 0: 2.0}, {2.5: 1.0}, {2: 1.0, 2.5: 3.0},
                 {math.inf: 1.0}, {math.nan: 1.0}, {2: 1.0, math.inf: 1.0}):
        for build in (slow_manifold_lift_ct, slow_manifold_field):
            with pytest.raises(ValueError, match="exponents must be >= 2 and whole"):
                build(-0.05, 1.0, poly)


# ---------------------------------------------------------------------------
# linear propagation of the lifted system
# ---------------------------------------------------------------------------

def test_lifted_propagation_matches_nonlinear_simulation():
    """Projection of the linear lifted flow equals the nonlinear flow."""
    model = slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0})
    system = builtin("quad_manifold")  # same parameters
    x0 = [1.5, -1.0]
    nonlinear = integrate(system, x0, 10.0, dt=0.01)
    lifted = propagate(model, x0, t_end=10.0, dt=0.01)
    states = project_states(model, lifted)
    assert np.max(np.abs(states - nonlinear.states)) < 1e-6
    # the third lifted coordinate tracks x1^2 along the whole trajectory
    np.testing.assert_allclose(
        lifted.states[:, 2], nonlinear.states[:, 0] ** 2, atol=1e-6
    )


def test_discrete_propagation_matches_map_iteration():
    lam, mu = 0.9, 0.5
    model = _registry_model("tu_map", lam=lam, mu=mu)
    system = builtin("tu_map", lam=lam, mu=mu)
    x0 = [1.0, 1.0]
    rolled = iterate(system, x0, 30)
    lifted = propagate(model, x0, steps=30)
    states = project_states(model, lifted)
    np.testing.assert_allclose(states, rolled.states, atol=1e-12)


def test_propagate_requires_matching_time_arguments():
    model = _registry_model("tu_map")
    with pytest.raises(ValueError):
        propagate(model, [1.0, 1.0], t_end=5.0)  # discrete model wants steps
    ct = slow_manifold_lift_ct(-0.05, 1.0, {2: 1.0})
    with pytest.raises(ValueError):
        propagate(ct, [1.0, 1.0], steps=5)  # continuous model wants t_end
    # the other kind's argument is refused, not ignored
    with pytest.raises(ValueError, match="discrete model takes steps, not t_end"):
        propagate(model, [1.0, 1.0], t_end=5.0, steps=5)
    with pytest.raises(ValueError, match="continuous model takes t_end, not steps"):
        propagate(ct, [1.0, 1.0], t_end=1.0, steps=5)
    for bad in (2.5, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            propagate(model, [1.0, 1.0], steps=bad)
    assert len(propagate(model, [1.0, 1.0], steps=np.int64(3))) == 4


# ---------------------------------------------------------------------------
# one step matrix: the references are the per-sample loops it replaced
# ---------------------------------------------------------------------------

def _reference_loop(model, x0, n, step, width=None):
    """The lifted trajectory of n steps, one ``step(y)`` call per sample; with
    ``width``, y holds that many copies of the start as its columns."""
    y = ref.values(model.library.observables, x0)
    if width is not None:
        y = np.repeat(y[:, None], width, axis=1)
    ys = np.empty((n + 1, *y.shape))
    ys[0] = y
    for i in range(n):
        y = step(y)
        ys[i + 1] = y
    return ys


def _registry_lift(name):
    return _registry_model(name), _REGISTRY[name]["x0"]


MAP_LIFTS = {
    **{name: _registry_lift(name) for name in ("tu_map", "discrete_manifold")},
    **{f"carleman_logistic_{r}": (carleman_logistic(3.5, r), [0.5]) for r in range(2, 17)},
}
FLOW_LIFTS = {
    **{name: _registry_lift(name)
       for name in ("quad_manifold", "quartic_manifold", "rotated_quad", "kooc_demo")},
    **{f"carleman_center_{r}": (carleman_center(r), [0.5]) for r in range(4, 17)},
}
FLOW_STEPS = (0, 1, 63, 64, 65, 10_000)
FLOW_DTS = (0.001, 0.01, 0.1, 0.3)


@functools.lru_cache(maxsize=1)  # the cases of one lift run one after another
def _flow_reference(name):
    """The per-sample RK4 loop of each dt in FLOW_DTS over FLOW_STEPS[-1] steps,
    as one loop whose states hold one column per dt; {dt: (steps + 1, m) array}."""
    model, x0 = FLOW_LIFTS[name]
    # the unstable lifts overflow over 10,000 long steps: there propagate raises BlowUp
    with np.errstate(over="ignore", invalid="ignore"):
        ys = _reference_loop(model, x0, FLOW_STEPS[-1],
                             lambda y: ref.rk4_step(lambda v: model.K @ v, y, np.array(FLOW_DTS)),
                             width=len(FLOW_DTS))
    return {dt: ys[:, :, j] for j, dt in enumerate(FLOW_DTS)}


def _assert_blows_up_no_earlier(run, reference, dt):
    """``run()`` raises BlowUp no earlier than the reference's first non-finite row."""
    with pytest.raises(BlowUp) as info:
        run()
    assert info.value.t >= np.argmin(np.all(np.isfinite(reference), axis=1)) * dt


@pytest.mark.parametrize("name", MAP_LIFTS)
def test_map_propagation_is_bit_identical_to_the_step_loop(name):
    model, x0 = MAP_LIFTS[name]
    # carleman_logistic(3.5, r) overflows within 65 steps for r >= 9 (within 40
    # for r = 15, 16): there propagate raises BlowUp instead
    with np.errstate(over="ignore", invalid="ignore"):
        for steps in (0, 1, 40, 65):
            reference = _reference_loop(model, x0, steps, lambda y: model.K @ y)
            if np.all(np.isfinite(reference)):
                assert propagate(model, x0, steps=steps).states.tobytes() == reference.tobytes()
            else:
                _assert_blows_up_no_earlier(lambda: propagate(model, x0, steps=steps),
                                            reference, 1.0)
    if name == "carleman_logistic_16":
        assert not np.all(np.isfinite(reference))


@pytest.mark.parametrize("dt", FLOW_DTS)
@pytest.mark.parametrize("name", FLOW_LIFTS)
def test_flow_propagation_stays_within_1e12_of_the_rk4_loop(name, dt):
    model, x0 = FLOW_LIFTS[name]
    reference = _flow_reference(name)[dt]
    for steps in FLOW_STEPS:
        if steps == 0:  # a horizon under dt/2 takes no step
            with pytest.raises(ValueError, match=r"takes no step .*round\(t_end/dt\) is 0"):
                propagate(model, x0, t_end=0.4 * dt, dt=dt)
            continue
        old = reference[:steps + 1]
        if not np.all(np.isfinite(old)):
            _assert_blows_up_no_earlier(lambda: propagate(model, x0, t_end=steps * dt, dt=dt),
                                        old, dt)
            continue
        states = propagate(model, x0, t_end=steps * dt, dt=dt).states
        assert len(states) == steps + 1
        gap = np.max(np.abs(states - old), axis=1)
        assert np.all(gap <= 1e-12 * np.max(np.abs(old), axis=1))


def test_propagate_raises_blowup_at_its_first_non_finite_sample():
    flow, x0 = FLOW_LIFTS["kooc_demo"]  # from (-5, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUp, match=r"^state norm inf exceeded 1.0e\+08 at t=707.1;") as info:
            propagate(flow, x0, t_end=1000.0, dt=0.1)
        assert info.value.t == pytest.approx(707.1, abs=1e-9)
        with pytest.raises(BlowUp, match="at t=36;") as info:
            propagate(carleman_logistic(3.5, 16), [0.5], steps=40)
        assert info.value.t == 36.0


@pytest.mark.parametrize("dt", [0.001, 0.01, 0.1, 0.3])
def test_the_step_matrix_takes_each_unit_vector_one_rk4_step(dt):
    for model, _ in FLOW_LIFTS.values():
        m = len(model.library)
        # on the linear library the lift of a state is the state itself
        linear = KoopmanModel(monomials(m, 1), model.K, CONTINUOUS)
        for e in np.eye(m):
            step = propagate(linear, e, t_end=dt, dt=dt).states[1]
            reference = ref.rk4_step(lambda v: model.K @ v, e, dt)
            np.testing.assert_allclose(step, reference, rtol=1e-14,
                                       atol=1e-15 * np.max(np.abs(reference)))


@pytest.mark.parametrize("k, x0, dt, t_end", [
    ([[-500.0]], [1.0], 0.01, 1.0),
    # T4 = 240,784: its 58th power overflows, so the stack holds 57 powers
    ([[-500.0]], [1.0], 0.1, 0.5),
    ([[-500.0, 0.0], [0.0, -1.0]], [0.0, 1.0], 0.1, 20.0),
])
def test_a_stiff_flow_propagates_without_floating_point_warnings(k, x0, dt, t_end):
    model = KoopmanModel(monomials(len(k), 1), np.array(k), CONTINUOUS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = propagate(model, x0, t_end=t_end, dt=dt).states
    reference = _reference_loop(model, x0, len(states) - 1,
                                lambda y: ref.rk4_step(lambda v: model.K @ v, y, dt))
    np.testing.assert_allclose(states, reference, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Carleman truncations
# ---------------------------------------------------------------------------

def test_carleman_logistic_rank4_exact_entries():
    r = 3.5
    m = carleman_logistic(r, 4)
    assert m.library.names == ["x1", "x1^2", "x1^3", "x1^4"]
    assert m.time_kind == DISCRETE
    # row n holds r^n * (-1)^k * C(n, k) at columns n + k, truncated at rank
    expected = np.zeros((4, 4))
    for n in range(1, 5):
        for k in range(0, n + 1):
            col = n + k
            if col <= 4:
                expected[n - 1, col - 1] = r**n * (-1) ** k * math.comb(n, k)
    np.testing.assert_array_equal(m.K, expected)


def test_carleman_logistic_full_rows_sum_to_zero_exactly():
    """Each full binomial row r^n (x - x^2)^n collapses at x = 1.

    The matrix keeps only columns up to the rank; the zero-sum identity
    belongs to the full row, which is reconstructed here term by term.
    With r = 3.5 every term is an exactly-representable double, so the
    compensated sum must be exactly 0.0, not merely small.
    """
    r = 3.5
    m = carleman_logistic(r, 4)
    for n in range(1, 5):
        full_row = [r**n * (-1) ** k * math.comb(n, k) for k in range(n + 1)]
        assert math.fsum(full_row) == 0.0
        # stored row is exactly the retained prefix of the full row
        stored = m.K[n - 1]
        for k, coeff in enumerate(full_row):
            col = n + k
            if col <= 4:
                assert stored[col - 1] == coeff


def test_carleman_logistic_truncated_closure():
    system = builtin("logistic", r=3.5)
    m = carleman_logistic(3.5, 4)
    assert closure_residual(m, system, truncate=True) == 0.0
    assert closure_residual(m, system, truncate=False) > 1.0
    # K is read off the composed powers of r x - r x^2, so a truncation closes
    # exactly at non-dyadic r too, where the binomial entries r^n C(n, k) would
    # round otherwise
    for rank in (8, 12, 16):
        for r in (3.5, 3.7, 3.9):
            m = carleman_logistic(r, rank)
            assert closure_residual(m, builtin("logistic", r=r), truncate=True) == 0.0, (r, rank)


def test_truncation_keeps_the_monomials_of_a_non_monomial_observable():
    """dx/dt = x^2 on [x, x + x^2]: both advances, x^2 and x^2 + 2 x^3, lose
    only x^3, and what is left is K = [[-1, 1], [-1, 1]] applied to the library."""
    system = builtin("center_manifold")
    x = Polynomial.variable(1, 0)
    library = ObservableLibrary(1, (x, x + x**2))
    exact = KoopmanModel(library, [[-1.0, 1.0], [-1.0, 1.0]], CONTINUOUS)
    assert closure_residual(exact, system, truncate=True) == 0.0
    assert closure_residual(exact, system, truncate=False) == 2.0
    # a row that is off still reads its gap: x^2 + 2 x^3 against 0
    off = KoopmanModel(library, [[-1.0, 1.0], [0.0, 0.0]], CONTINUOUS)
    assert closure_residual(off, system, truncate=True) == 1.0


def test_carleman_center_structure_and_singularity():
    for rank in (3, 4, 8):
        m = carleman_center(rank)
        k = m.K
        assert m.time_kind == CONTINUOUS
        # d/dt x^i = i x^(i+1): nilpotent superdiagonal with entries 1..rank-1
        np.testing.assert_array_equal(np.diag(k, 1), np.arange(1, rank))
        np.testing.assert_array_equal(k - np.diag(np.diag(k, 1), 1), np.zeros_like(k))
        assert np.linalg.det(k) == 0.0


def test_carleman_center_prediction_is_taylor_partial_sum():
    """Truncated linear flow of dx = x^2 reproduces the geometric series."""
    x0 = 0.5
    t = 1.0
    for rank in (3, 5, 8):
        m = carleman_center(rank)
        lifted = propagate(m, [x0], t_end=t, dt=0.001)
        partial = sum(x0 ** (k + 1) * t**k for k in range(rank))
        assert lifted.states[-1, 0] == pytest.approx(partial, abs=1e-12)


def test_carleman_center_divergence_horizon_monotone_in_rank():
    """Time to 10% relative error grows with truncation rank."""
    x0 = 0.5
    horizons = []
    for rank in (4, 8, 12):
        m = carleman_center(rank)
        lifted = propagate(m, [x0], t_end=1.9, dt=0.001)
        truth = 1.0 / (1.0 / x0 - lifted.times)
        rel = np.abs(lifted.states[:, 0] - truth) / np.abs(truth)
        crossed = np.nonzero(rel > 0.1)[0]
        horizons.append(lifted.times[crossed[0]] if crossed.size else np.inf)
    assert horizons[0] <= horizons[1] <= horizons[2]
    assert horizons[0] > 0.5  # rank 4 is already decent well inside blow-up


# ---------------------------------------------------------------------------
# symbolic observable dynamics
# ---------------------------------------------------------------------------

def test_observable_advance_continuous():
    system = builtin("quad_manifold", mu=-0.05, lam=1.0)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    assert _advances([x1, x1**2, x2], system) == [-0.05 * x1, -0.1 * x1**2, x2 - x1**2]


def test_observable_advance_discrete_composes_with_the_map():
    system = builtin("logistic", r=3.5)
    x = Polynomial.variable(1, 0)
    # x^2 after the map is (r x (1-x))^2
    (advanced,) = _advances([x**2], system)
    direct = (3.5 * (x - x**2)) * (3.5 * (x - x**2))
    assert advanced == direct


def _random_closure_cases(seed, count):
    """Seeded polynomial systems of both time kinds, each with a library that
    holds a non-monomial observable and a sparse K of mixed-scale entries."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(1, 3))
        equations = tuple(
            Polynomial(dim, {tuple(int(e) for e in rng.integers(0, 3, dim)):
                             float(rng.choice([1.0, -1.0, 0.5, -2.0, 3.5, 0.1]))
                             for _ in range(3)})
            for _ in range(dim))
        observables = [*monomials(dim, int(rng.integers(1, 4))).observables,
                       Polynomial(dim, {(1,) * dim: 0.5, (2,) + (0,) * (dim - 1): -1.5})]
        library = ObservableLibrary(dim, tuple(observables))
        m = len(library)
        k = rng.choice([0.0, 1.0, -1.0, 0.5, 3.5], size=(m, m), p=[0.5, 0.2, 0.1, 0.1, 0.1])
        k = k + np.where(rng.random((m, m)) < 0.1, rng.normal(size=(m, m)), 0.0)
        for time_kind in (CONTINUOUS, DISCRETE):
            yield KoopmanModel(library, k, time_kind), PolySystem(dim, time_kind, equations)


@pytest.mark.parametrize("truncate", [False, True])
def test_closure_residual_is_bit_identical_to_the_difference_polynomial(truncate):
    cases = list(_random_closure_cases(17, 30))
    for rank in (1, 2, 4, 8, 16, 24):
        cases.append((carleman_logistic(3.5, rank), builtin("logistic", r=3.5)))
        cases.append((carleman_center(rank), builtin("center_manifold")))
    cases += [(_registry_lift(name)[0], builtin(name)) for name in
              ("quad_manifold", "quartic_manifold", "rotated_quad", "discrete_manifold", "tu_map")]
    residuals = []
    for model, system in cases:
        got = closure_residual(model, system, truncate=truncate)
        assert float.hex(got) == float.hex(ref.closure_residual(model, system, truncate))
        residuals.append(got)
    assert 0.0 in residuals and len(set(residuals)) > 20  # exact closures and mismatches both


def test_closure_residual_refuses_a_difference_that_overflows():
    # the advance 1e308 x minus K's -1e308 x is 2e308: no finite float
    x = Polynomial.variable(1, 0)
    system = PolySystem(1, DISCRETE, (1e308 * x,))
    model = KoopmanModel(ObservableLibrary(1, ((1,),)), np.array([[-1e308]]), DISCRETE)
    for residual in (closure_residual, ref.closure_residual):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            residual(model, system)


# ---------------------------------------------------------------------------
# refinement's closure: growing a library until its advances close
# ---------------------------------------------------------------------------

def _random_growth_cases(seed, count):
    """Seeded systems of 1-3 states, both time kinds and degree caps 2-6. Each start set is the
    state and up to three observables of degree at most half the cap, as refinement's are, some
    of more than one term and some of coefficients other than 1."""
    rng = np.random.default_rng(seed)

    def poly(dim, max_degree, n_terms, coeffs):
        return Polynomial(dim, {tuple(int(e) for e in rng.multinomial(rng.integers(1, max_degree + 1),
                                                                      [1 / dim] * dim)):
                                float(rng.choice(coeffs)) for _ in range(n_terms)})

    for _ in range(count):
        dim, cap = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        kind = (CONTINUOUS, DISCRETE)[int(rng.integers(2))]
        system = PolySystem(dim, kind, tuple(poly(dim, 2, int(rng.integers(1, 4)), [1.0, -0.5, 2.0, 0.25])
                                             for _ in range(dim)))
        extra = [poly(dim, max(1, cap // 2), int(rng.integers(1, 3)), [1.0, -0.5, 2.0])
                 for _ in range(int(rng.integers(0, 4)))]
        yield list(dict.fromkeys([Polynomial.variable(dim, i) for i in range(dim)] + extra)), system, cap


def _closure(observables, system, degree_cap, max_rounds=MAX_ROUNDS):
    """``_close`` in the reference's form: (each observable's terms, rounds, closed)."""
    grown, rounds, closed = _close(observables, system, degree_cap, max_rounds)
    return [obs.terms for obs in grown], rounds, closed


def test_closure_grows_as_the_reference_that_advances_every_observable_every_round():
    outcomes = set()
    for start, system, cap in _random_growth_cases(5, 300):
        got = _closure(start, system, cap)
        assert got == ref.close(start, system, cap, MAX_ROUNDS)
        outcomes.add((got[1] > 2, got[2]))
    assert outcomes == {(False, True), (False, False), (True, True), (True, False)}


def test_a_one_term_observable_holds_its_monomial_and_a_many_term_one_holds_none():
    x = Polynomial.variable(1, 0)
    # along dx/dt = x^2: x -> x^2, x + x^2 -> x^2 + 2x^3, 2x^3 -> 6x^4, x^2 -> 2x^3, x^4 -> 4x^5
    grown, rounds, closed = _close([x, x + x ** 2, 2 * x ** 3], builtin("center_manifold"), 4, MAX_ROUNDS)
    assert (grown, rounds, closed) == ([x, x + x ** 2, 2 * x ** 3, x ** 2, x ** 4], 2, False)


# Closure along each registry system's true field, from its state alone at degree cap 6. The
# systems whose exact lift is a monomial library close on exactly it in 2 rounds; the rest stop
# unclosed at the cap. The logistic map has two fixed points, and along dx/dt = x^2 the advance
# of x^k is k x^(k+1), so no finite library closes on either. The tilted flow's exact lift holds
# a quadratic of three terms, which no monomial closure finds: it grows to every monomial up to
# the cap.
_UNCLOSED_ALONG_THE_TRUE_FIELD = {
    "center_manifold": (monomials(1, 6), 6),
    "logistic": (monomials(1, 6), 3),
    "rotated_quad": (monomials(2, 6), 6),
}


@pytest.mark.parametrize("name", registry_names())
def test_closure_along_each_true_field_lands_on_its_exact_lift_or_stops_at_the_cap(name):
    system = builtin(name)
    state = [Polynomial.variable(system.dim, i) for i in range(system.dim)]
    grown, rounds, closed = _close(state, system, 6, MAX_ROUNDS)
    if name in _UNCLOSED_ALONG_THE_TRUE_FIELD:
        library, unclosed_rounds = _UNCLOSED_ALONG_THE_TRUE_FIELD[name]
        assert (tuple(grown), rounds, closed) == (library.observables, unclosed_rounds, False)
    else:
        lift = _REGISTRY[name]["lift"](system, 4)
        assert (tuple(grown), rounds, closed) == (lift.library.observables, 2, True)
    assert _closure(state, system, 6) == ref.close(state, system, 6, MAX_ROUNDS)


def test_closure_stops_unclosed_after_max_rounds_rounds():
    x = Polynomial.variable(1, 0)
    grown, rounds, closed = _close([x], builtin("center_manifold"), 20, MAX_ROUNDS)
    assert (tuple(grown), rounds, closed) == (monomials(1, MAX_ROUNDS + 1).observables, MAX_ROUNDS, False)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_json_roundtrip_preserves_exact_floats(tmp_path):
    model = slow_manifold_lift_ct(-0.05, 1.0, {2: 1.0})
    data = _model_to_json(model)
    again = _model_from_json(json.loads(json.dumps(data)))
    np.testing.assert_array_equal(again.K, model.K)
    assert again.library.names == model.library.names
    assert again.time_kind == model.time_kind
    assert again.state_rows == model.state_rows

    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.K, model.K)


def _center_model_json():
    return _model_to_json(carleman_center(2))


def test_a_model_file_with_a_named_observable_is_refused_by_name(tmp_path):
    data = _center_model_json()
    data["observables"][1] = "exp_neg_inv"
    path = tmp_path / "named.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="observable 'exp_neg_inv' is not a polynomial"):
        load_model(path)


def test_a_model_file_without_k_names_the_missing_key(tmp_path):
    data = _center_model_json()
    del data["K"]
    path = tmp_path / "no_k.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="expected a JSON object with 'K'"):
        load_model(path)


def test_a_model_file_holding_a_list_is_refused(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([_center_model_json()]))
    with pytest.raises(ValueError, match="expected a JSON object with 'time_kind', 'K'"):
        load_model(path)


@pytest.mark.parametrize("entry", [5, None, [[1]], {"coeffs": [1.0]}, {"terms": 5},
                                   {"terms": [[1.0]]}, {"terms": [[1.0, [1], 2]]}])
def test_a_model_file_with_a_malformed_observable_names_it(tmp_path, entry):
    data = _center_model_json()
    data["observables"][1] = entry
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"observable {re.escape(repr(entry))} is not a polynomial"):
        load_model(path)


@pytest.mark.parametrize("k", [{"a": 1}, [[0.0, 1.0], [0.0]], "K", [[0.0, [1.0]], [0.0, 0.0]]])
def test_a_model_file_whose_k_is_not_a_matrix_of_numbers_names_k(tmp_path, k):
    data = _center_model_json()
    data["K"] = k
    path = tmp_path / "bad_k.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"K must be a matrix of numbers, got {k!r}")):
        load_model(path)


@pytest.mark.parametrize("exponents", [[1.5], [float("nan")], [2.000001]])
def test_a_model_file_whose_exponent_is_not_whole_names_the_tuple(tmp_path, exponents):
    data = _center_model_json()
    data["observables"][1] = exponents
    path = tmp_path / "bad_exponent.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(
            f"exponent tuple {tuple(exponents)} holds an exponent that is not a whole number")):
        load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("state_inclusive"), "expected a JSON object with 'state_inclusive'"),
    (lambda d: d.update(state_inclusive=False),
     "state_inclusive is False, but the observables make it True"),
    (lambda d: d.update(observables=[[2], [1]]),
     "state_inclusive is True, but the observables make it False"),
    (lambda d: d.update(dim="1"), "dim must be a positive integer, got '1'"),
    (lambda d: d.update(dim=True), "dim must be a positive integer, got True"),
    (lambda d: d.update(observables=5), "observables must be a list, got int"),
])
def test_a_model_file_whose_library_header_is_wrong_is_refused(tmp_path, edit, message):
    data = _center_model_json()
    edit(data)
    path = tmp_path / "bad_library.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(path)


def test_a_model_file_with_a_polynomial_observable_round_trips(tmp_path):
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    lib = ObservableLibrary(2, (x1, x2, x2 - 0.5 * x1 ** 2))
    model = KoopmanModel(lib, np.diag([-0.05, -1.0, -1.0]), CONTINUOUS)
    path = tmp_path / "poly.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.library == lib and loaded.library.state_inclusive
    np.testing.assert_array_equal(loaded.K, model.K)


def test_model_rejects_mismatched_matrix_size():
    lib = monomials(2, 2)
    with pytest.raises(ValueError):
        KoopmanModel(lib, np.eye(3), CONTINUOUS)


@pytest.mark.parametrize("lib", [
    ObservableLibrary(2, [(0, 1), (1, 0)]),
    ObservableLibrary(1, [(2,), (1,)]),
    ObservableLibrary(2, [(1, 0)]),
])
def test_model_refuses_a_library_that_is_not_state_inclusive(lib):
    with pytest.raises(ValueError, match="needs a state-inclusive library"):
        KoopmanModel(lib, np.eye(len(lib)), CONTINUOUS)
    # x1, x2 first is state-inclusive: there is nothing left to declare
    accepted = KoopmanModel(ObservableLibrary(2, [(1, 0), (0, 1)]), np.eye(2), CONTINUOUS)
    assert accepted.state_rows == (0, 1)


@pytest.mark.parametrize("rows", [[1, 0], [2, 1], [0], [0, 1, 2], None])
def test_load_model_refuses_state_rows_other_than_the_first_n(tmp_path, rows):
    data = _model_to_json(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}))
    if rows is None:
        del data["state_rows"]
    else:
        data["state_rows"] = rows
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"are not the library's first 2 rows"):
        load_model(path)


@pytest.mark.parametrize("name", registry_names())
def test_every_registry_lift_holds_its_state_in_its_first_rows(name):
    system = builtin(name)
    model = _REGISTRY[name]["lift"](system, 4)
    n = system.dim
    assert model.state_rows == tuple(range(n))
    x0 = _REGISTRY[name]["x0"]
    if model.time_kind == DISCRETE:
        lifted = propagate(model, x0, steps=3)
    else:
        lifted = propagate(model, x0, t_end=0.03, dt=0.01)
    states = project_states(model, lifted)
    np.testing.assert_array_equal(states, lifted.states[:, :n])
    np.testing.assert_array_equal(states[0], x0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_propagate_rejects_a_non_finite_start(bad):
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        propagate(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}), [bad, 0.0], t_end=1.0)
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        propagate(_registry_model("tu_map"), [0.0, bad], steps=3)


@pytest.mark.parametrize("t_end, dt", [(1.0, 0.0), (-1.0, 0.01), (1.0, -0.01), (math.inf, 0.01)])
def test_propagate_rejects_a_non_positive_or_infinite_horizon_or_step(t_end, dt):
    with pytest.raises(ValueError, match="t_end and dt must be positive"):
        propagate(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}), [1.0, 0.0], t_end=t_end, dt=dt)


def test_propagate_rejects_a_negative_step_count():
    with pytest.raises(ValueError, match="steps must be non-negative"):
        propagate(_registry_model("tu_map"), [1.0, 1.0], steps=-1)


@pytest.mark.parametrize("t_end, dt", [(1.0, 0.01), (0.7, 0.03), (2.0, 0.3), (1.0, 1 / 3),
                                       (0.004, 0.01), (10.0, 0.005)])
def test_integrate_and_propagate_sample_the_same_times(t_end, dt):
    runs = (lambda: integrate(builtin("quad_manifold"), [1.0, 0.5], t_end, dt=dt),
            lambda: propagate(slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}), [1.0, 0.5],
                              t_end=t_end, dt=dt))
    if round(t_end / dt) == 0:  # no step: both refuse, with one message
        messages = []
        for run in runs:
            with pytest.raises(ValueError, match=f"t_end {t_end:g} takes no step of dt {dt:g}") as info:
                run()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        return
    flow, lifted = (run() for run in runs)
    assert flow.times.tobytes() == lifted.times.tobytes()


# ---------------------------------------------------------------------------
# exact algebra: the references are the term-by-term dict folds
# ---------------------------------------------------------------------------

def _assert_closure_matches_the_reference(model, system):
    observables = model.library.observables
    for obs, advance in zip(observables, _advances(observables, system), strict=True):
        assert ref.bits(advance) == ref.bits(ref.advance(obs, system), system.dim)
    for truncate in (False, True):
        got = closure_residual(model, system, truncate=truncate)
        assert float.hex(got) == float.hex(ref.closure_residual(model, system, truncate))


@pytest.mark.parametrize("name", registry_names())
def test_closure_and_advances_are_bit_identical_to_the_reference_on_every_system(name):
    system = builtin(name)
    _assert_closure_matches_the_reference(_REGISTRY[name]["lift"](system, 4), system)
    # a full degree-4 library advances through many-term powers of both equations
    observables = monomials(system.dim, 4).observables
    for obs, advance in zip(observables, _advances(observables, system), strict=True):
        assert ref.bits(advance) == ref.bits(ref.advance(obs, system), system.dim)


@pytest.mark.parametrize("rank", range(1, 17))
def test_carleman_closure_is_bit_identical_to_the_reference_at_every_rank(rank):
    _assert_closure_matches_the_reference(carleman_logistic(3.5, rank), builtin("logistic"))
    _assert_closure_matches_the_reference(carleman_center(rank), builtin("center_manifold"))
    assert closure_residual(carleman_logistic(3.5, rank), builtin("logistic"), truncate=True) == 0.0
    assert closure_residual(carleman_center(rank), builtin("center_manifold"), truncate=True) == 0.0


def test_linear_combinations_are_bit_identical_to_the_reference():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    lib = ObservableLibrary(2, (x1, x2, x1 ** 2, x2 - x1 ** 2, 0.1 * x1 ** 2 + 0.3 * x2,
                                x1 * x2 + x1 ** 2, x1 ** 3 + 10.0 * x2 ** 2))
    rng = np.random.default_rng(25)
    rows = [
        rng.standard_normal((40, len(lib))) * (rng.random((40, len(lib))) < 0.6),
        # x1^2 cancels after entry 3 and re-enters at the end from entry 5
        np.array([[0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]]),
        # x2 and x1^2 cancel exactly, leaving x1*x2 alone, and in the last row nothing
        np.array([[0.0, -1.0, 0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, -1.0, -1.0, 0.0, 0.0, 0.0]]),
        # 5e-324 * 0.1 and 5e-324 * 0.3 round to zero, so entry 4 adds nothing; -0.0 is skipped
        np.array([[1e-310, -0.0, 1.0, 0.0, 5e-324, 0.0, 0.0]]),
    ]
    for row in np.vstack(rows):
        assert (ref.bits(lib.linear_combination(row))
                == ref.bits(ref.linear_combination(lib.observables, row), lib.dim))
    assert lib.linear_combination(np.zeros(len(lib))).is_zero()
    # a product (10 * 1e308) or a sum (1e308 + 1e308) that overflows is refused
    for row in ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308], [0.0, 0.0, 1e308, 0.0, 0.0, 1e308, 0.0]):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            lib.linear_combination(np.array(row))


def test_closure_makes_a_number_of_products_linear_in_the_rank(monkeypatch):
    system = builtin("logistic", r=3.5)
    models = {rank: carleman_logistic(3.5, rank) for rank in (4, 8, 16)}
    calls = []
    multiply = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    counts = {}
    for rank, model in models.items():
        calls.clear()
        assert closure_residual(model, system, truncate=True) == 0.0
        counts[rank] = len(calls)
    # one new power of the map and one product per observable: the count is affine
    # in the rank (forming each observable's power afresh and scaling each entry of
    # K by a product made 22, 68 and 232)
    assert counts[16] - counts[8] == 2 * (counts[8] - counts[4])
    assert counts[16] <= 2 * 16


@pytest.mark.parametrize("model, x0, dt, held", [
    (FLOW_LIFTS["kooc_demo"][0], [-5.0, 5.0], 0.01, 64),
    (carleman_center(16), [0.5], 0.001, 64),
    (KoopmanModel(monomials(1, 1), np.array([[-500.0]]), CONTINUOUS), [1e-300], 0.1, 57),
    (KoopmanModel(monomials(1, 1), np.array([[-1e50]]), CONTINUOUS), [1e-300], 0.1, 1),
    # T4 itself overflows: the stack still holds it, and the first sample blows up
    # with no floating-point warning
    (KoopmanModel(monomials(1, 1), np.array([[-1e80]]), CONTINUOUS), [1.0], 0.1, 1),
])
def test_flow_propagation_is_bit_identical_to_the_while_loop_stack(model, x0, dt, held):
    for steps in (1, 2, held, held + 3, 200):
        with np.errstate(over="ignore", invalid="ignore"):  # forming T4 = inf warns
            count, reference = ref.block_loop(model, x0, steps, dt)
        assert count == held
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.all(np.isfinite(reference)):
                states = propagate(model, x0, t_end=steps * dt, dt=dt).states
                assert states.tobytes() == reference.tobytes()
                continue
            with pytest.raises(BlowUp) as info:
                propagate(model, x0, t_end=steps * dt, dt=dt)
        first = np.argmin(np.all(np.isfinite(reference), axis=1))
        assert info.value.t == pytest.approx(first * dt, rel=1e-12)


@pytest.mark.parametrize("model, x0, dt", [
    (*FLOW_LIFTS["kooc_demo"], 0.01),
    (*FLOW_LIFTS["carleman_center_8"], 0.001),
    # the third observable has five terms, so its start value depends on the order of its sum
    (*FLOW_LIFTS["rotated_quad"], 0.01),
    # T4 = 240,784 on the first axis: the stack is cut at 57 powers, and the
    # start on the second axis keeps every sample finite
    (KoopmanModel(monomials(2, 1), np.array([[-500.0, 0.0], [0.0, -1.0]]), CONTINUOUS),
     [0.0, 1.0], 0.1),
    (*MAP_LIFTS["tu_map"], None),
    (*MAP_LIFTS["discrete_manifold"], None),
], ids=["kooc_demo", "carleman_center_8", "rotated_quad", "cut stack", "tu_map",
        "discrete_manifold"])
def test_propagate_writes_the_bits_of_the_block_loop_with_temporaries(model, x0, dt):
    for steps in (0, 1, 63, 64, 65, 5_000):
        if dt is None:
            got = propagate(model, x0, steps=steps).states
        elif steps:  # a flow takes at least one step
            got = propagate(model, x0, t_end=steps * dt, dt=dt).states
        else:
            continue
        _, expected = ref.block_loop(model, x0, steps, dt)
        assert np.all(np.isfinite(expected))
        assert got.tobytes() == expected.tobytes()
