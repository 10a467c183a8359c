"""Exact multivariate polynomial arithmetic on exponent multi-indices.

This is the symbolic substrate for closure checks, subspace refinement, and
eigenfunction re-expression. Coefficients are plain floats and every routine
is deterministic.

Powers follow two rules, one per path:

* Algebra (``Polynomial.__pow__``) multiplies by left folds, ((a*a)*a)*...,
  so that the same product of factors yields bit-identical results wherever
  the symbolic engine forms it; every lift is read off that engine's advances.
  Composition keeps that rule while forming each power of a component once:
  its power table holds p^e = p^(e-1) * p, the fold ``__pow__`` makes
  (``1.0 * c == c``), and one table serves every polynomial that one call
  composes (:func:`_compose_all`).
* Evaluation (:class:`PolynomialMap`, which ``Polynomial.__call__`` uses)
  takes x^1 as x, x^2 as ``x * x`` (one rounding, so correctly rounded)
  and x^e for e > 2 from libm ``pow``: Python's float ``**`` at a point
  (through :func:`_pow`, which turns an overflow into +-inf, or inline in
  the trajectory loops, which turn it into a ``BlowUp``), and
  ``np.float_power``, which returns the same bits, on columns. Measured
  against exact ``Fraction`` powers on 20,000 samples in [-3, 3] for each
  e = 3..6, ``pow`` misses the correctly rounded value in under 0.1% of
  samples, numpy's SIMD ``**`` in 2.7% and left folds in 26-46%.

Evaluation adds or subtracts a term whose coefficient is +-1 unscaled
(IEEE gives ``1.0 * t == t`` and ``a + (-1.0 * t) == a - t``), so which
coefficients are +-1 is part of a map's structure. Output rows sum from
``0.0``; see :class:`PolynomialMap` for the rows that need not.

Arithmetic builds each coefficient dict once and re-validates only what can
be new. Results of arithmetic on validated polynomials go through
``Polynomial._of``, which drops zeros and checks finiteness but does not
re-check the exponent tuples. :func:`_compose_all` takes a term's first
factor as the cached power scaled by the coefficient (the power itself for
1.0) and a one-term result as that term, and
:func:`~koopmankit.lifting.closure_residual` compares coefficient dicts
without building a difference polynomial. None of these changes a float
operation or its order, only which objects hold the results, so every
coefficient keeps the bits of the object-by-object fold.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np


def _whole_exponents(exps):
    """``exps`` as a tuple of ints; an exponent that is not a whole number raises."""
    exps = tuple(exps)
    try:
        whole = tuple(int(e) for e in exps)
    except (ValueError, OverflowError):  # NaN and infinite exponents
        whole = None
    if whole != exps or any(isinstance(e, (bool, np.bool_)) for e in exps):  # a JSON true is no exponent
        raise ValueError(f"exponent tuple {exps} holds an exponent that is not a whole number")
    return whole


class Polynomial:
    """Real polynomial in ``dim`` variables, stored as {exponent tuple: coefficient}.

    Instances are treated as immutable; all operations return new objects.
    Zero coefficients are never stored.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        clean = {}
        for exps, coeff in terms.items():
            exps = _whole_exponents(exps)
            if len(exps) != self.dim:
                raise ValueError(f"exponent tuple {exps} does not match dim={self.dim}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError("non-finite coefficient")
            if coeff != 0.0:
                clean[exps] = clean.get(exps, 0.0) + coeff
                if clean[exps] == 0.0:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def _of(cls, dim, terms):
        """The result of arithmetic on validated polynomials, whose exponent
        tuples need no second check: zero coefficients are dropped in order,
        and every other one must be finite."""
        clean = {}
        for exps, coeff in terms.items():
            if coeff != 0.0:
                coeff = float(coeff)
                if not math.isfinite(coeff):
                    raise ValueError("non-finite coefficient")
                clean[exps] = coeff
        out = cls.__new__(cls)
        out.dim = dim
        out.terms = clean
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim, index):
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} is out of range for dim={dim}")
        exps = [0] * dim
        exps[index] = 1
        return cls(dim, {tuple(exps): 1.0})

    @classmethod
    def monomial(cls, dim, exponents):
        return cls(dim, {tuple(exponents): 1.0})

    @classmethod
    def from_terms(cls, dim, term_list):
        """Build from an iterable of (coefficient, exponents) pairs."""
        out = {}
        for coeff, exps in term_list:
            exps = _whole_exponents(exps)
            out[exps] = out.get(exps, 0.0) + float(coeff)
        return cls(dim, out)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        return _linear_sum(self.dim, ((1.0, self), (1.0, self._coerce(other))))

    def __neg__(self):
        return Polynomial._of(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __mul__(self, other):
        if not isinstance(other, Polynomial) and np.isscalar(other):
            return Polynomial._of(self.dim, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        get, add, pairs = out.get, operator.add, other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in pairs:
                exps = tuple(map(add, e1, e2))
                out[exps] = get(exps, 0.0) + c1 * c2
        return Polynomial._of(self.dim, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        # a left fold, the grouping of composition's power table
        (n,) = _whole_exponents((n,))
        if n < 0:
            raise ValueError("negative exponent")
        out = Polynomial.constant(self.dim, 1.0)
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        if np.isscalar(other):
            return Polynomial.constant(self.dim, other)
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    # -- calculus and substitution ------------------------------------------

    def derivative(self, index):
        """Partial derivative with respect to variable ``index``."""
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[index] = e - 1
            out[tuple(lowered)] = e * coeff  # distinct terms lower to distinct keys
        return Polynomial._of(self.dim, out)

    def lie_derivative(self, fields):
        """Derivative along a vector field: sum_i (d/dx_i) * f_i."""
        if len(fields) != self.dim:
            raise ValueError("field component count does not match dim")
        partials = (self.derivative(i) for i in range(self.dim))
        return _linear_sum(self.dim, ((1.0, di * f) for di, f in zip(partials, fields) if di.terms))

    def compose(self, components):
        """Substitute x_i -> components[i] (each a Polynomial of the same dim)."""
        return _compose_all((self,), components)[0]

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a point (shape (dim,)) or snapshot matrix (shape (dim, M))."""
        return PolynomialMap(self.dim, (self,))(x)[0]

    # -- structure ------------------------------------------------------------

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        """True for a single term with coefficient exactly 1."""
        return len(self.terms) == 1 and next(iter(self.terms.values())) == 1.0

    def exponents(self):
        """The exponent tuple of a monomial; error otherwise."""
        if len(self.terms) != 1:
            raise ValueError("not a single-term polynomial")
        return next(iter(self.terms))

    def key(self):
        """Hashable canonical form, used for library deduplication."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.key()))

    def __repr__(self):
        return f"Polynomial({self.dim}, {format_polynomial(self)!r})"


def _linear_sum(dim, pairs):
    """The polynomial sum of ``scale * poly`` over ``(scale, poly)`` pairs, in one dict.

    Terms are added in the order that ``+`` of the scaled polynomials would add
    them, and a sum that cancels to zero leaves the dict at once, so a later
    term re-enters at the end: the result has the terms, order and bits of
    that fold of ``Polynomial`` objects. A scaled coefficient that is zero adds
    nothing, and one that is not finite stays so to the finiteness check.
    """
    acc = {}
    for scale, poly in pairs:
        for exps, coeff in poly.terms.items():
            total = acc.get(exps, 0.0) + coeff * scale
            if total == 0.0:
                acc.pop(exps, None)
            else:
                acc[exps] = total
    return Polynomial._of(dim, acc)


def _compose_all(polys, components):
    """Each of ``polys`` with x_i -> components[i], from one table of powers.

    ``powers[i][e]`` is components[i]^e, formed once as ``powers[i][e-1] *
    components[i]``: the left fold of ``__pow__``, whose first factor
    ``1.0 * p`` is ``p`` itself. Each term is its coefficient times its
    factors' powers, variables ascending, and each result the sum of its
    terms in order, as the term-by-term substitution forms them.

    The term-by-term form multiplies the constant ``coeff`` by the first
    power, giving ``0.0 + coeff * c`` for each of its coefficients ``c``. A
    nonzero sum is ``coeff * c``, which IEEE rounds as ``c * coeff``, and
    ``_of`` drops the zeros either way, so the first factor is the power
    scaled by ``coeff``, or the power itself when ``coeff`` is 1.0. A
    one-term result is that term, as a one-term sum adds ``0.0 + c``. The
    results may share a power of the table, as no polynomial is written to.
    """
    if any(poly.dim != len(components) for poly in polys):
        raise ValueError("component count does not match dim")
    powers = [[None, p] for p in components]
    out = []
    for poly in polys:
        terms = []
        for exps, coeff in poly.terms.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    table = powers[i]
                    while len(table) <= e:
                        table.append(table[-1] * table[1])
                    power = table[e]
                    if term is None:
                        term = power if coeff == 1.0 else power * coeff
                    else:
                        term = term * power
            terms.append(Polynomial._of(poly.dim, {exps: coeff}) if term is None else term)
        if len(terms) == 1:
            out.append(terms[0])
        else:
            out.append(_linear_sum(poly.dim, ((1.0, term) for term in terms)))
    return out


def _pow(x, e):
    """A point's float ``x`` raised to the integer ``e`` by libm ``pow``; an
    overflow gives +-inf, as ``np.float_power`` does, where ``x ** e`` raises."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


_TERMS_PER_LINE = 32  # keeps each generated sum shallow for Python's compiler
_CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source):
    """The code object of ``source``, compiled once while it stays cached."""
    return compile(source, "<PolynomialMap>", "exec")


class PolynomialMap:
    """Compiled evaluator of a fixed tuple of polynomials in ``dim`` variables.

    One emitter, :meth:`_lines`, writes the tuple as straight-line Python
    source for any names of its inputs and outputs; the source holds only
    those names, variable indices and names ``c0, c1, ...`` bound to the
    coefficients in order, and no coefficient is formatted into it. It
    computes, in the order of a term-by-term loop, so that values are
    bit-identical to one:

    1. each variable power once, by the module's one evaluation rule:
       ``x ** 1`` is ``x``, ``x ** 2`` is ``x * x`` and ``x ** e`` for
       ``e > 2`` is ``pow(x, e)``, libm ``pow`` at a point or on a row;
    2. each term as its coefficient times its factors, variables ascending,
       but a non-constant term with coefficient 1.0 or -1.0 binds no name
       and is added as ``+ t`` or ``- t`` (``-t`` leading a row): the bits
       of ``1.0 * t`` and ``-1.0 * t``;
    3. each row as the terms summed in dict order starting from ``zero``, so
       a sum that cancels is ``0.0``, never ``-0.0``; only the RK4 stage
       rows after the first, which are no output, start at their first term
       (see ``dynamics._loop_source``).

    The first read of ``_evaluate`` builds one function from it,
    ``_evaluate(x, zero=0.0, pow=_pow)``, which takes a sequence of ``dim``
    Python floats and returns a tuple of floats; given an ``(n, M)`` array,
    a zero row and ``np.float_power`` it returns a tuple of rows. Python
    float ``*``, ``+``, ``-`` and ``**`` round like numpy's float64
    operations and ``float_power``, so both give the same bits.
    ``__call__`` wraps it for numpy points and columns. :func:`iterate
    <koopmankit.dynamics.iterate>` and :func:`integrate
    <koopmankit.dynamics.integrate>` inline the emitted lines, through
    :meth:`_compile`, into the one trajectory loop that maps and flows share,
    with each power above 2 as an inline ``x ** e``.

    Maps of one structure, +-1 coefficients included, emit one source, which
    :meth:`_compile` compiles once per process; each map binds its own
    coefficients to its own function.
    """

    __slots__ = ("dim", "polys", "_coeffs", "_rows", "_powers", "_evaluate")

    def __init__(self, dim, polys):
        self.dim = int(dim)
        self.polys = tuple(polys)
        coeffs, rows, powers = [], [], {}  # powers: exponent > 1 -> variables
        for poly in self.polys:
            if poly.dim != self.dim:
                raise ValueError("dimension mismatch")
            terms = []  # (sign, template): "{i}" is variable i, "{i}_e" its e-th power
            for exps, coeff in poly.terms.items():
                factors = []
                for i, e in enumerate(exps):
                    if e:
                        factors.append(f"{{{i}}}" if e == 1 else f"{{{i}}}_{e}")
                    if e > 1:
                        powers.setdefault(e, set()).add(i)
                if factors and abs(coeff) == 1.0:
                    terms.append(("-" if coeff < 0 else "+", " * ".join(factors)))
                else:
                    terms.append(("+", " * ".join([f"c{len(coeffs)}", *factors])))
                    coeffs.append(coeff)
            rows.append(terms)
        self._coeffs = tuple(coeffs)
        self._rows = tuple(rows)
        self._powers = {e: tuple(sorted(used)) for e, used in sorted(powers.items())}

    def __getattr__(self, name):
        """Compile ``_evaluate`` into its empty slot on first read; a map that is
        only inlined or composed never pays for it."""
        if name != "_evaluate":
            raise AttributeError(name)
        xs = [f"x{i}" for i in range(self.dim)]
        rs = [f"r{r}" for r in range(len(self._rows))]
        self._evaluate = self._compile(
            "_evaluate(x, zero=0.0, pow=_pow)",
            [f"[{', '.join(xs)}] = x", *self._lines(xs, rs),
             f"return ({''.join(f'{r}, ' for r in rs)})"])
        return self._evaluate

    def _lines(self, xs, outs, zero=True, inline=False):
        """Source lines that set each name in ``outs`` to its row at the inputs named ``xs``.

        The lines read ``c0, c1, ...``, ``zero`` and ``pow(x, e)``, and assign
        ``<input>_<e>`` besides the outputs. With ``zero=False`` a nonempty
        row starts at its first term; with ``inline`` a power above 2 is
        ``x ** e``, which raises ``OverflowError`` where ``pow`` gives +-inf.
        """
        power = "{0} ** {1}" if inline else "pow({0}, {1})"
        lines = [f"{xs[i]}_{e} = " + (f"{xs[i]} * {xs[i]}" if e == 2 else power.format(xs[i], e))
                 for e, used in self._powers.items() for i in used]
        for out, terms in zip(outs, self._rows):
            signed = [(sign, term.format(*xs)) for sign, term in terms]
            head = "zero"
            if signed and not zero:
                sign, head = signed.pop(0)
                head = f"-{head}" if sign == "-" else head
            for j in range(0, max(len(signed), 1), _TERMS_PER_LINE):
                lines.append(f"{out} = {head}" + "".join(
                    f" {sign} {term}" for sign, term in signed[j:j + _TERMS_PER_LINE]))
                head = out
        return lines

    def _compile(self, signature, body, **names):
        """The function ``def <signature>: <body>``, with ``c0, c1, ...`` bound to
        the coefficients and ``names`` and :func:`_pow` as its globals: the
        code object of :func:`_code`, run in a fresh namespace."""
        source = "\n".join([
            "def make(c):",
            f"    [{', '.join(f'c{j}' for j in range(len(self._coeffs)))}] = c",
            f"    def {signature}:",
            *(f"        {line}" for line in body),
            f"    return {signature.partition('(')[0]}",
        ])
        namespace = {"_pow": _pow, **names}
        exec(_code(source), namespace)
        return namespace["make"](self._coeffs)

    def __reduce__(self):
        return PolynomialMap, (self.dim, self.polys)

    def __call__(self, x):
        """Values (k,) at a point of shape (dim,), or (k, M) at columns of shape (dim, M)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(f"expected leading dimension {self.dim}, got {x.shape}")
        if x.ndim == 1:
            values = self._evaluate(x.tolist())
        else:
            values = self._evaluate(x, np.zeros(x.shape[1]), np.float_power)
        return np.array(values) if values else np.zeros((0,) + x.shape[1:])


def _monomial_name(exponents) -> str:
    """Readable name for a monomial, e.g. (2, 1) -> 'x1^2*x2'."""
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _graded_lex(exponents):
    """Sort key of the graded-lexicographic order: total degree, then descending
    exponent of the earliest variable, so x1 precedes x2 and x1^2 precedes x1*x2."""
    return sum(exponents), tuple(-e for e in exponents)


def format_polynomial(poly: Polynomial) -> str:
    """Compact display form with graded-lexicographic term order."""
    if not poly.terms:
        return "0"
    ordered = sorted(poly.terms.items(), key=lambda item: _graded_lex(item[0]))
    parts = []
    for exps, coeff in ordered:
        name = _monomial_name(exps)
        if name == "1":
            piece = f"{coeff:g}"
        elif coeff == 1.0:
            piece = name
        elif coeff == -1.0:
            piece = f"-{name}"
        else:
            piece = f"{coeff:g}*{name}"
        parts.append(piece)
    text = parts[0]
    for piece in parts[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text
