"""Tests for the sparse polynomial engine."""

import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from koopmankit import (
    CONTINUOUS,
    ObservableLibrary,
    Polynomial,
    PolynomialMap,
    builtin,
    eval_library,
    format_polynomial,
    integrate,
    monomials,
    registry_names,
)
from koopmankit import polynomials
from koopmankit.polynomials import _monomial_name

import _reference as ref


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
    assert _monomial_name((1, 0)) == "x1"
    assert _monomial_name((0, 2)) == "x2^2"
    assert _monomial_name((1, 1)) == "x1*x2"
    assert _monomial_name((4, 0)) == "x1^4"


def test_vanishing_leading_terms_reduce_degree():
    x1 = Polynomial.variable(1, 0)
    p = (x1**3 + x1) - x1**3
    assert p.degree() == 1


# -- exponents are whole numbers ----------------------------------------------

@pytest.mark.parametrize("exps", [(1.5,), (float("nan"),), (float("inf"),), ("2",), (2, 0.5),
                                  (True, 0), (np.bool_(True),)])
def test_an_exponent_that_is_not_a_whole_number_is_refused_naming_its_tuple(exps):
    message = re.escape(f"exponent tuple {exps} holds an exponent that is not a whole number")
    dim = len(exps)
    with pytest.raises(ValueError, match=message):
        Polynomial(dim, {exps: 1.0})
    with pytest.raises(ValueError, match=message):
        Polynomial.from_terms(dim, [(1.0, exps)])
    with pytest.raises(ValueError, match=message):
        Polynomial.monomial(dim, exps)
    if dim == 1:  # a one-exponent tuple is a power, too
        with pytest.raises(ValueError, match=message):
            Polynomial.variable(1, 0) ** exps[0]


def test_whole_float_and_numpy_exponents_are_read_as_ints():
    p = Polynomial(2, {(2.0, np.int64(1)): 1.0})
    assert list(p.terms) == [(2, 1)] and all(type(e) is int for e in next(iter(p.terms)))
    assert Polynomial.from_terms(1, [(1.0, [1.0]), (2.0, (1,))]).terms == {(1,): 3.0}
    x = Polynomial.variable(2, 0)
    assert x ** 2.0 == x ** 2 == x * x and x ** np.int64(3) == x * x * x


@pytest.mark.parametrize("index", [-1, 2, 5])
def test_a_variable_index_outside_the_dimension_is_refused_by_name(index):
    with pytest.raises(ValueError, match=f"variable index {index} is out of range for dim=2"):
        Polynomial.variable(2, index)


def test_a_library_refuses_a_fractional_exponent():
    with pytest.raises(ValueError, match=re.escape("exponent tuple (1.5,) holds an exponent")):
        ObservableLibrary(1, [(1.5,), (2,)])


# -- exact algebra: the references are the term-by-term dict folds ---------------

def _random_polynomial(rng, dim, degree, size):
    exps = [tuple(int(e) for e in rng.integers(0, degree + 1, dim)) for _ in range(size)]
    # simple coefficients make products and sums cancel often
    return Polynomial(dim, {e: float(rng.choice([1.0, -1.0, 2.0, -0.5, 0.1, 3.5])) for e in exps})


def test_compose_is_bit_identical_to_the_term_by_term_power_fold():
    rng = np.random.default_rng(2025)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    # (x1 - x2)^e (x1 + x2)^e cancels cross terms, and 3.5 x - 3.5 x^2 is the logistic map
    fixed = [([x1 - x2, x1 + x2], 2), ([0.5 * (x1 + x2), 0.5 * (x1 - x2)], 2),
             ([3.5 * x1 - 3.5 * x1 ** 2, x2 + x1 ** 2], 2)]
    cases = fixed + [([_random_polynomial(rng, dim, 2, 4) for _ in range(dim)], dim)
                     for dim in (1, 2, 3) for _ in range(6)]
    for components, dim in cases:
        polys = [_random_polynomial(rng, dim, 5, 8) for _ in range(4)]
        expected = [ref.bits(ref.compose(p, components), dim) for p in polys]
        assert [ref.bits(p.compose(components)) for p in polys] == expected
        assert [ref.bits(p) for p in polynomials._compose_all(polys, components)] == expected
        sixth = Polynomial.monomial(dim, (6,) + (0,) * (dim - 1))
        assert ref.bits(sixth.compose(components)) == ref.bits(ref.compose(sixth, components), dim)


def _one_term_cases():
    return {
        "monomial": Polynomial.monomial(2, (2, 1)),
        "scaled monomial": Polynomial(2, {(0, 3): -2.5}),
        "constant": Polynomial.constant(2, -1.5),
        "a component itself": Polynomial.variable(2, 0),
        # 1e-320 * 1e-10 underflows to zero, which both forms drop
        "subnormal scale": Polynomial(2, {(1, 1): 1e-320}),
    }


@pytest.mark.parametrize("name", list(_one_term_cases()))
def test_one_term_compositions_are_bit_identical_to_the_power_fold(name):
    poly = _one_term_cases()[name]
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for components in ([x1 - 0.5 * x2 ** 2, 3.5 * x1 - 3.5 * x1 ** 2],
                       [1e-10 * x1 + x2, -(x2 ** 2) + 0.1],
                       [x1 * x2, x1 + x2]):
        (composed,) = polynomials._compose_all((poly,), components)
        assert ref.bits(composed) == ref.bits(ref.compose(poly, components), 2)


def test_a_scaled_first_factor_that_overflows_is_refused():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for compose in (polynomials._compose_all, lambda polys, c: [ref.compose(polys[0], c)]):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            compose((1e300 * x1,), [1e10 * x1, x2])


def test_sums_and_lie_derivatives_are_bit_identical_to_the_object_fold():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    # x1^2 cancels and comes back: the term re-enters at the end of the dict
    p = (x1 ** 2 + x2) + (-(x1 ** 2) + x1) + (x1 ** 2 + 2.0)
    folded = ref.add(ref.add((x1 ** 2 + x2).terms, (-(x1 ** 2) + x1).terms), (x1 ** 2 + 2.0).terms)
    assert ref.bits(p) == ref.bits(folded, 2)
    assert list(p.terms) == [(0, 1), (1, 0), (2, 0), (0, 0)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        poly = _random_polynomial(rng, 2, 4, 6)
        fields = [_random_polynomial(rng, 2, 3, 4) for _ in range(2)]
        assert ref.bits(poly.lie_derivative(fields)) == ref.bits(ref.lie_derivative(poly, fields), 2)
    assert ref.bits((x1**2 + x2**2).lie_derivative([x2, -x1])) == ref.bits({}, 2)
    assert ref.bits(x1 * np.float64(0.1)) == ref.bits({(1, 0): 0.1}, 2)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        Polynomial.constant(1, 1e200) * Polynomial.constant(1, 1e200)


# -- the compiled evaluator against the term-by-term loop it replaced ------

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
        expected = ref.values(polys, x)
        assert pmap(x).tobytes() == expected.tobytes()
        for p, value in zip(polys, expected):
            assert p(x).tobytes() == value.tobytes()
    for cols in batches:
        assert pmap(cols).tobytes() == ref.values(polys, cols).tobytes()


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
        expected = ref.values(system.equations, cols)
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
        assert eval_library(lib, x).tobytes() == ref.values(lib.observables, x).tobytes()


def test_unit_coefficients_are_added_or_subtracted_with_the_term_loops_bits():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    polys = (-x1 + x2**3, x1 * x2 - x2**2, -x1**4 - x2, x1 + x2, -(x1 * x1 * x2))
    pmap = PolynomialMap(2, polys)
    assert pmap._coeffs == ()  # no coefficient is bound, so none is multiplied
    _assert_map_matches_reference(polys, 2, np.random.default_rng(11))
    # a row that cancels is +0.0, at points and on columns
    row = PolynomialMap(2, (-x1 + x2,))
    for x in ([1.5, 1.5], [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]):
        (expected,) = ref.values([-x1 + x2], x)
        assert expected == 0.0 and not np.signbit(expected)
        assert row(x).tobytes() == np.array([expected]).tobytes()
        assert row(np.array(x)[:, None]).tobytes() == np.array([[expected]]).tobytes()


def test_compiled_sum_never_returns_negative_zero():
    # -x1 at x1 = 0.0 is a -0.0 term; the sum starts from 0.0 and yields 0.0
    p = -1.0 * Polynomial.variable(2, 0) + Polynomial.variable(2, 1) ** 2
    for x in ([0.0, 0.0], [0.0, -0.0], [-0.0, 0.0]):
        assert np.signbit(PolynomialMap(2, (p,))(x)).tolist() == [False]
        assert not np.signbit(p(x))


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


def _count_compiles(monkeypatch):
    """Empty the code cache and record each source that ``compile()`` then sees."""
    sources = []

    def counted(source, *args):
        sources.append(source)
        return compile(source, *args)

    polynomials._code.cache_clear()
    monkeypatch.setattr(polynomials, "compile", counted, raising=False)
    return sources


def test_maps_of_one_structure_share_one_compile_and_keep_their_coefficients(monkeypatch):
    sources = _count_compiles(monkeypatch)
    rng = np.random.default_rng(23)
    exps = [(3, 1), (0, 1), (2, 0), (1, 1)]
    polys = [Polynomial(2, dict(zip(exps, rng.uniform(-2.0, 2.0, len(exps))))) for _ in range(2)]
    maps = [PolynomialMap(2, (p,)) for p in polys]
    points, batches = _evaluation_inputs(2, rng)
    for pmap, poly in zip(maps, polys):
        for x in points:
            assert pmap(x).tobytes() == ref.values([poly], x).tobytes()
        for cols in batches:
            assert pmap(cols).tobytes() == ref.values([poly], cols).tobytes()
    assert len(sources) == 1
    assert maps[0]._evaluate is not maps[1]._evaluate
    assert maps[0]([1.5, -1.0]).tobytes() != maps[1]([1.5, -1.0]).tobytes()


def test_the_code_cache_stays_within_its_bound_and_recompiles_what_it_evicted(monkeypatch):
    sources = _count_compiles(monkeypatch)
    bound = polynomials._CODE_CACHE_SIZE
    x1 = Polynomial.variable(1, 0)
    first = PolynomialMap(1, (2.0 * x1 ** 3,))
    assert first([1.5]).tolist() == [2.0 * 1.5 ** 3]
    for e in range(4, bound + 6):  # one distinct source per exponent
        PolynomialMap(1, (x1 ** e,))([1.0])
        assert polynomials._code.cache_info().currsize <= bound
    assert len(sources) == bound + 3
    evicted = PolynomialMap(1, (-3.0 * x1 ** 3,))
    assert evicted([1.5]).tolist() == [-3.0 * 1.5 ** 3]
    assert len(sources) == bound + 4 and sources[-1] == sources[0]
    assert first([1.5]).tolist() == [2.0 * 1.5 ** 3]


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
