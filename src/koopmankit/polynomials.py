"""Exact multivariate polynomial arithmetic on exponent multi-indices.

This is the symbolic substrate for closure checks, subspace refinement, and
eigenfunction re-expression. Coefficients are plain floats and every routine
is deterministic.

Powers follow two rules, one per path:

* Algebra (:func:`ipow`, ``Polynomial.__pow__``) multiplies by left folds,
  ((a*a)*a)*..., so that the same product of factors yields bit-identical
  results wherever a lift builder or the symbolic engine forms it.
* Evaluation (:class:`PolynomialMap`, which ``Polynomial.__call__`` uses)
  takes x^1 as x, x^2 as ``x * x`` (one rounding, so correctly rounded)
  and x^e for e > 2 from libm ``pow``: Python's float ``**`` at a point, and
  ``np.float_power``, which returns the same bits, on columns. Measured
  against exact ``Fraction`` powers on 20,000 samples in [-3, 3] for each
  e = 3..6, ``pow`` misses the correctly rounded value in under 0.1% of
  samples, numpy's SIMD ``**`` in 2.7% and left folds in 26-46%.
"""

from __future__ import annotations

import math

import numpy as np


def ipow(base: float, n: int) -> float:
    """Left-fold integer power: ((base*base)*base)*...

    Used instead of ``**`` wherever two code paths must agree on the exact
    floating-point value of a repeated product.
    """
    if n < 0:
        raise ValueError("negative exponent")
    out = 1.0
    for _ in range(n):
        out = out * base
    return out


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
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dim:
                raise ValueError(f"exponent tuple {exps} does not match dim={self.dim}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise ValueError("non-finite coefficient")
            if coeff != 0.0:
                clean[exps] = clean.get(exps, 0.0) + coeff
                if clean[exps] == 0.0:
                    del clean[exps]
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim, index):
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
            exps = tuple(int(e) for e in exps)
            out[exps] = out.get(exps, 0.0) + float(coeff)
        return cls(dim, out)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0.0) + coeff
        return Polynomial(self.dim, merged)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(self.dim, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, 0.0) + c1 * c2
        return Polynomial(self.dim, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        # left-fold to match ipow's factor grouping
        if n < 0:
            raise ValueError("negative exponent")
        out = Polynomial.constant(self.dim, 1.0)
        for _ in range(int(n)):
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
            key = tuple(lowered)
            out[key] = out.get(key, 0.0) + e * coeff
        return Polynomial(self.dim, out)

    def lie_derivative(self, fields):
        """Derivative along a vector field: sum_i (d/dx_i) * f_i."""
        if len(fields) != self.dim:
            raise ValueError("field component count does not match dim")
        out = Polynomial.zero(self.dim)
        for i, f in enumerate(fields):
            di = self.derivative(i)
            if di.terms:
                out = out + di * f
        return out

    def compose(self, components):
        """Substitute x_i -> components[i] (each a Polynomial of the same dim)."""
        if len(components) != self.dim:
            raise ValueError("component count does not match dim")
        out = Polynomial.zero(self.dim)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(self.dim, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * (components[i] ** e)
            out = out + term
        return out

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

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def key(self):
        """Hashable canonical form, used for library deduplication."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.key()))

    def __repr__(self):
        return f"Polynomial({self.dim}, {format_polynomial(self)!r})"


def _pow(x, e):
    """A point's float ``x`` raised to the integer ``e`` by libm ``pow``; an
    overflow gives +-inf, as ``np.float_power`` does, where ``x ** e`` raises."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


_TERMS_PER_LINE = 32  # keeps each generated sum shallow for Python's compiler


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
    2. each term as its coefficient times its factors, variables ascending;
    3. each row as the terms summed in dict order starting from ``zero``, so
       a sum that cancels is ``0.0``, never ``-0.0``.

    The first read of ``_evaluate`` compiles one function from it,
    ``_evaluate(x, zero=0.0, pow=_pow)``, which takes a sequence of ``dim``
    Python floats and returns a tuple of floats; given an ``(n, M)`` array,
    a zero row and ``np.float_power`` it returns a tuple of rows. Python
    float ``*``, ``+`` and ``**`` round like numpy's float64 ``*``, ``+``
    and ``float_power``, so both give the same bits.
    ``__call__`` wraps it for numpy points and columns. :func:`iterate
    <koopmankit.dynamics.iterate>` and :func:`integrate
    <koopmankit.dynamics.integrate>` inline the emitted lines, through
    :meth:`_compile`, into the one trajectory loop that maps and flows share.
    """

    __slots__ = ("dim", "polys", "_coeffs", "_rows", "_powers", "_evaluate")

    def __init__(self, dim, polys):
        self.dim = int(dim)
        self.polys = tuple(polys)
        coeffs, rows, powers = [], [], {}  # powers: exponent > 1 -> variables
        for poly in self.polys:
            if poly.dim != self.dim:
                raise ValueError("dimension mismatch")
            terms = []  # templates: "{i}" is variable i, "{i}_e" its e-th power
            for exps, coeff in poly.terms.items():
                factors = [f"c{len(coeffs)}"]
                for i, e in enumerate(exps):
                    if e:
                        factors.append(f"{{{i}}}" if e == 1 else f"{{{i}}}_{e}")
                    if e > 1:
                        powers.setdefault(e, set()).add(i)
                coeffs.append(coeff)
                terms.append(" * ".join(factors))
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

    def _lines(self, xs, outs):
        """Source lines that set each name in ``outs`` to its row at the inputs named ``xs``.

        The lines read ``c0, c1, ...``, ``zero`` and ``pow(x, e)``, and assign
        ``<input>_<e>`` besides the outputs.
        """
        lines = [f"{xs[i]}_{e} = " + (f"{xs[i]} * {xs[i]}" if e == 2 else f"pow({xs[i]}, {e})")
                 for e, used in self._powers.items() for i in used]
        for out, terms in zip(outs, self._rows):
            products = [term.format(*xs) for term in terms]
            acc = "zero"
            for j in range(0, max(len(products), 1), _TERMS_PER_LINE):
                lines.append(f"{out} = " + " + ".join([acc, *products[j:j + _TERMS_PER_LINE]]))
                acc = out
        return lines

    def _compile(self, signature, body, **names):
        """The function ``def <signature>: <body>``, with ``c0, c1, ...`` bound to
        the coefficients and ``names`` and :func:`_pow` as its globals."""
        source = "\n".join([
            "def make(c):",
            f"    [{', '.join(f'c{j}' for j in range(len(self._coeffs)))}] = c",
            f"    def {signature}:",
            *(f"        {line}" for line in body),
            f"    return {signature.partition('(')[0]}",
        ])
        namespace = {"_pow": _pow, **names}
        exec(compile(source, "<PolynomialMap>", "exec"), namespace)
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


def monomial_name(exponents) -> str:
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
        name = monomial_name(exps)
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
