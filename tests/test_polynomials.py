"""Tests for the sparse polynomial engine."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    EXP_NEG_INV,
    ObservableLibrary,
    Polynomial,
    PolynomialMap,
    builtin,
    eval_library,
    eval_named_observable,
    format_polynomial,
    integrate,
    monomial_name,
    monomials,
    registry_names,
)
from koopmankit.polynomials import ipow


def test_constructors_and_repr():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = x2 - 0.5 * x1**2
    assert p.dim == 2
    assert format_polynomial(p) == "x2 - 0.5*x1^2"
    assert Polynomial.zero(3).is_zero()
    assert Polynomial.constant(2, 4.0)((7.0, -3.0)) == 4.0


def test_arithmetic_matches_pointwise_evaluation():
    # ring operations agree with evaluating the operands and combining values
    rng = np.random.default_rng(11)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = 2.0 * x1**2 - x2 + 0.25
    q = x1 * x2 - 3.0
    pts = rng.uniform(-2.0, 2.0, size=(50, 2))
    for x in pts:
        assert (p + q)(x) == pytest.approx(p(x) + q(x), rel=1e-14)
        assert (p - q)(x) == pytest.approx(p(x) - q(x), rel=1e-14)
        assert (p * q)(x) == pytest.approx(p(x) * q(x), rel=1e-13)
        assert (p**3)(x) == pytest.approx(p(x) ** 3, rel=1e-12)


def test_zero_coefficients_are_dropped():
    x1 = Polynomial.variable(1, 0)
    p = x1 - x1
    assert p.is_zero()
    assert p.terms == {}


def test_derivative():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = x1**3 * x2 + 2.0 * x2
    dp = p.derivative(0)
    assert dp == 3.0 * x1**2 * x2
    assert p.derivative(1) == x1**3 + Polynomial.constant(2, 2.0)


def test_lie_derivative_along_slow_manifold_field():
    """d/dt of x1^2 along (mu*x1, lam*(x2-x1^2)) is 2*mu*x1^2."""
    mu, lam = -0.05, 1.0
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    fields = [mu * x1, lam * (x2 - x1**2)]
    assert (x1**2).lie_derivative(fields) == 2.0 * mu * x1**2
    assert x2.lie_derivative(fields) == lam * (x2 - x1**2)


def test_compose_with_linear_change_of_variables():
    # substituting x -> (u+v)/2, y -> (u-v)/2 into x*y gives (u^2-v^2)/4
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    u = Polynomial.variable(2, 0)
    v = Polynomial.variable(2, 1)
    composed = (x * y).compose([0.5 * (u + v), 0.5 * (u - v)])
    assert composed == 0.25 * u**2 - 0.25 * v**2


def test_evaluation_broadcasts_over_sample_arrays():
    p = Polynomial.variable(2, 0) ** 2
    pts = np.array([[1.0, 0.0], [2.0, 5.0], [-3.0, 1.0]])
    np.testing.assert_array_equal(p(pts.T), np.array([1.0, 4.0, 9.0]))


def test_degree_and_monomial_queries():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = x1**2 * x2
    assert p.degree() == 3
    assert p.is_monomial()
    assert p.exponents() == (2, 1)
    assert not (p + x1).is_monomial()


def test_monomial_name():
    assert monomial_name((1, 0)) == "x1"
    assert monomial_name((0, 2)) == "x2^2"
    assert monomial_name((1, 1)) == "x1*x2"
    assert monomial_name((4, 0)) == "x1^4"


def test_ipow_matches_left_fold_exactly():
    # the helper must reproduce the exact float of repeated multiplication,
    # because lift builders and the symbolic engine rely on bit-equality
    for base in (3.5, 0.9, -0.05, 1.7):
        acc = 1.0
        for n in range(8):
            assert ipow(base, n) == acc
            acc = acc * base


def test_vanishing_leading_terms_reduce_degree():
    x1 = Polynomial.variable(1, 0)
    p = (x1**3 + x1) - x1**3
    assert p.degree() == 1


# -- the compiled evaluator against the term-by-term loop it replaced ------

def _reference_eval(poly, x):
    """The per-term evaluation loop that ``Polynomial.__call__`` used to run,
    with x^2 as ``x * x`` and libm ``pow`` (``np.float_power``) above 2."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    cols = x[:, None] if single else x
    acc = np.zeros(cols.shape[1])
    for exps, coeff in poly.terms.items():
        term = np.full(cols.shape[1], coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * (cols[i] if e == 1 else cols[i] * cols[i] if e == 2
                               else np.float_power(cols[i], e))
        acc = acc + term
    return acc[0] if single else acc


def _evaluation_inputs(dim, rng):
    """Single points and (dim, M) batches, with exact zeros and -0.0 entries."""
    pts = rng.uniform(-2.5, 2.5, size=(40, dim))
    pts[::5] = 0.0
    pts[1::5, 0] = -0.0
    pts[2::7] = -0.0
    batches = [pts.T, np.ascontiguousarray(pts.T), pts[::3].T]
    return list(pts), batches


def _assert_map_matches_reference(polys, dim, rng):
    pmap = PolynomialMap(dim, polys)
    points, batches = _evaluation_inputs(dim, rng)
    for x in points:
        expected = np.array([_reference_eval(p, x) for p in polys])
        assert pmap(x).tobytes() == expected.tobytes()
        for p in polys:
            assert p(x).tobytes() == _reference_eval(p, x).tobytes()
    for cols in batches:
        expected = np.vstack([_reference_eval(p, cols) for p in polys])
        assert pmap(cols).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", registry_names())
def test_compiled_field_is_bit_identical_to_the_term_loop(name):
    system = builtin(name)
    rng = np.random.default_rng(7)
    _assert_map_matches_reference(system.equations, system.dim, rng)
    if system.time_kind == CONTINUOUS:
        x0 = [0.4] * system.dim if name == "center_manifold" else [1.5, -1.0][:system.dim]
        traj = integrate(system, x0, 1.0)
        cols = traj.states.T  # a strided (n, M) view when n > 1
        assert system.dim == 1 or not cols.flags.c_contiguous
        expected = np.vstack([_reference_eval(p, cols) for p in system.equations])
        assert PolynomialMap(system.dim, system.equations)(cols).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_compiled_library_is_bit_identical_to_the_term_loop(dim, degree):
    lib = monomials(dim, degree)
    rng = np.random.default_rng(100 * dim + degree)
    # scaled, shifted and summed monomials exercise coefficients and cancellation
    mixed = [1.5 * o - 0.25 * lib.observables[0] for o in lib.observables[dim:]]
    _assert_map_matches_reference(lib.observables + tuple(mixed), dim, rng)
    points, batches = _evaluation_inputs(dim, rng)
    for x in points + batches:
        expected = np.vstack([np.atleast_1d(_reference_eval(o, x)) for o in lib.observables])
        if x.ndim == 1:
            expected = expected[:, 0]
        assert eval_library(lib, x).tobytes() == expected.tobytes()


def test_compiled_sum_never_returns_negative_zero():
    # -x1 at x1 = 0.0 is a -0.0 term; the sum starts from 0.0 and yields 0.0
    p = -1.0 * Polynomial.variable(2, 0) + Polynomial.variable(2, 1) ** 2
    for x in ([0.0, 0.0], [0.0, -0.0], [-0.0, 0.0]):
        assert np.signbit(PolynomialMap(2, (p,))(x)).tolist() == [False]
        assert not np.signbit(p(x))


def test_library_keeps_a_named_observable_row():
    lib = ObservableLibrary(1, ((1,), EXP_NEG_INV, (2,)))
    for x in ([0.5], [0.0], np.array([[0.0, 0.25, 2.0]])):
        x = np.asarray(x, dtype=float)
        cols = x[:, None] if x.ndim == 1 else x
        expected = np.vstack([cols[0], eval_named_observable(EXP_NEG_INV, cols[0]), cols[0] ** 2])
        if x.ndim == 1:
            expected = expected[:, 0]
        assert eval_library(lib, x).tobytes() == expected.tobytes()


def test_compiled_map_shapes_and_errors():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    pmap = PolynomialMap(2, (x1, x2 * x1, Polynomial.zero(2), Polynomial.constant(2, 3.0)))
    assert pmap([2.0, 5.0]).tolist() == [2.0, 10.0, 0.0, 3.0]
    assert pmap(np.ones((2, 4))).shape == (4, 4)
    assert pmap(np.ones((2, 0))).shape == (4, 0)
    with pytest.raises(ValueError, match="leading dimension"):
        pmap([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="leading dimension"):
        pmap(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        PolynomialMap(3, (x1,))


def test_a_map_compiles_its_evaluator_on_first_use_and_once(monkeypatch):
    compiled, compile_ = [], PolynomialMap._compile

    def counted(self, signature, *args, **kw):
        compiled.append(signature)
        return compile_(self, signature, *args, **kw)

    monkeypatch.setattr(PolynomialMap, "_compile", counted)
    pmap = PolynomialMap(2, (Polynomial(2, {(3, 1): 2.0, (0, 1): -1.0}),))
    assert compiled == []
    value = pmap([1.5, -1.0])
    assert pmap(np.array([[1.5], [-1.0]]))[:, 0].tobytes() == value.tobytes()
    assert len(compiled) == 1 and compiled[0].startswith("_evaluate(")
    with pytest.raises(AttributeError):
        pmap.missing
    again = pickle.loads(pickle.dumps(pmap))  # unpickled unused, compiled on its first call
    assert again([1.5, -1.0]).tobytes() == value.tobytes()


# -- the one power rule: libm pow at points and on columns -------------------

_ORACLE_EXPONENTS = (3, 4, 5, 6)


def _powers_at_points_and_columns(samples):
    """x^3..x^6 at each sample as a point, and at all samples as one (1, M) column block."""
    pmap = PolynomialMap(1, tuple(Polynomial(1, {(e,): 1.0}) for e in _ORACLE_EXPONENTS))
    points = np.array([pmap([v]) for v in samples]).T
    return points, pmap(np.array([samples]))


def test_evaluated_powers_are_correctly_rounded_in_99_8_percent_of_samples():
    samples = np.random.default_rng(17).uniform(-3.0, 3.0, 20_000).tolist()
    points, columns = _powers_at_points_and_columns(samples)
    for e, at_points, on_columns in zip(_ORACLE_EXPONENTS, points, columns):
        exact = np.array([float(Fraction(v) ** e) for v in samples])  # correctly rounded
        assert np.mean(at_points == exact) >= 0.998, e
        assert np.mean(on_columns == exact) >= 0.998, e


def test_points_and_columns_evaluate_powers_to_the_same_bits():
    samples = np.random.default_rng(17).uniform(-3.0, 3.0, 20_000)
    samples[:4] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308]
    points, columns = _powers_at_points_and_columns(samples.tolist())
    assert points.tobytes() == columns.tobytes()


@pytest.mark.parametrize("e", [4, 5])
def test_a_power_that_overflows_is_signed_infinity_at_points_and_on_columns(e):
    p = Polynomial(1, {(e,): 1.0})
    expected = [np.inf, (-1.0) ** e * np.inf]
    assert [p([1e100]), p([-1e100])] == expected
    with np.errstate(over="ignore"):
        assert p(np.array([[1e100, -1e100]])).tolist() == expected
