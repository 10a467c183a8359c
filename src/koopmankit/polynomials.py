"""Exact multivariate polynomial arithmetic on exponent multi-indices.

This is the symbolic substrate for closure checks, subspace refinement, and
eigenfunction re-expression. Coefficients are plain floats and every routine
is deterministic.

Powers follow two conventions, one per path:

* Algebra (:func:`ipow`, ``Polynomial.__pow__``) multiplies by left folds,
  ((a*a)*a)*..., so that the same product of factors yields bit-identical
  results wherever a lift builder or the symbolic engine forms it.
* Evaluation (:class:`PolynomialMap`, which ``Polynomial.__call__`` uses)
  takes numpy's ``x ** e`` for each variable power. Measured with numpy 2.4.6
  on an AVX-512 CPU, left-fold products differ from it in the last bit for
  26-46% of samples at exponents >= 3, and Python's float ``**`` for 0.1%
  (x^2) to 2.7% (x^3..x^6), so evaluation keeps numpy ``**``: trajectories
  and artifacts stay bit-identical to the term-by-term evaluation it replaced.
"""

from __future__ import annotations

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

    def __init__(self, dim, terms=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        clean = {}
        for exps, coeff in (terms or {}).items():
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
    def monomial(cls, dim, exponents, coeff=1.0):
        return cls(dim, {tuple(exponents): coeff})

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


class PolynomialMap:
    """Compiled evaluator of a fixed tuple of polynomials in ``dim`` variables.

    Compiled once: each polynomial becomes its terms in dict order as
    ``(coeff, ((var, exp), ...))`` with zero exponents dropped, and the
    variables raised to each exponent above 1 are collected. A call then
    works in the order of a term-by-term loop, so values are bit-identical to
    one:

    1. numpy ``** e`` with a Python int ``e``, once per distinct exponent
       ``e > 1``: on the whole point, or on only the rows of the columns that
       need it, since ``pow`` costs ~80 ns an entry. ``x ** 1`` is ``x``
       exactly and is not computed;
    2. each term is its coefficient times its factors, variables ascending;
    3. the terms are summed in dict order starting from ``0.0``, so a sum that
       cancels is ``0.0``, never ``-0.0``.

    At a single point steps 2 and 3 run on Python floats, which round like
    numpy's float64 ``*`` and ``+``.
    """

    __slots__ = ("dim", "rows", "powers")

    def __init__(self, dim, polys):
        self.dim = int(dim)
        rows = []
        for poly in polys:
            if poly.dim != self.dim:
                raise ValueError("dimension mismatch")
            rows.append(tuple((coeff, tuple((i, e) for i, e in enumerate(exps) if e))
                              for exps, coeff in poly.terms.items()))
        self.rows = tuple(rows)
        powers = {}  # exponent > 1 -> the variables raised to it
        for row in rows:
            for _, factors in row:
                for i, e in factors:
                    if e > 1:
                        powers.setdefault(e, set()).add(i)
        self.powers = {e: tuple(sorted(used)) for e, used in powers.items()}

    def __call__(self, x):
        """Values (k,) at a point of shape (dim,), or (k, M) at columns of shape (dim, M)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(f"expected leading dimension {self.dim}, got {x.shape}")
        if x.ndim == 1:
            table = {e: (x ** e).tolist() for e in self.powers}
            table[1] = x.tolist()
            zero = 0.0
        else:
            table = {e: {i: x[i] ** e for i in used} for e, used in self.powers.items()}
            table[1] = x
            zero = np.zeros(x.shape[1])
        values = []
        for row in self.rows:
            acc = zero
            for coeff, factors in row:
                for i, e in factors:
                    coeff = coeff * table[e][i]
                acc = acc + coeff
            values.append(acc)
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


def format_polynomial(poly: Polynomial) -> str:
    """Compact display form with graded-lexicographic term order."""
    if not poly.terms:
        return "0"
    ordered = sorted(poly.terms.items(), key=lambda item: (sum(item[0]), tuple(-e for e in item[0])))
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
