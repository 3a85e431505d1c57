"""Exact arithmetic kernel: rationals, sparse multivariate polynomials and
fraction-free linear algebra over Q.

No floats anywhere.  Polynomials are kept in a canonical graded-lexicographic
form so that structural equality coincides with mathematical equality; the
rest of the package relies on this for golden comparisons and for
deduplicating polynomial constraint sets.

Canonical form: ``Poly.terms`` lists each monomial at most once, with a
nonzero ``Fraction`` coefficient, in strictly descending grlex order (total
degree first, then the exponent tuple).  Every ``Poly`` built by the
arithmetic goes through one private step, ``_canonical``, which drops the
zero coefficients of distinct ``(monomial, Fraction)`` terms and sorts them
once.  It trusts its input, so only the arithmetic, whose monomials and
coefficients are already well formed, calls it; ``Poly.from_map`` checks
monomial lengths and coerces coefficients for every other caller, then ends
in the same step.  ``Poly.evaluate`` works in integers: it puts the values
over one denominator and the coefficients over one scale, and builds a single
``Fraction`` at the end.

Linear algebra over Q has one eliminator, ``RowSpace``.  Its one input
format is the sparse integer row ``{col: int}`` with nonzero values (``{}``
is the zero vector); a caller that holds a ``Fraction`` vector scales it with
``_integer_vector`` first, which changes no span, rank or homogeneous kernel.
It stores primitive integer rows, each keyed by its pivot, the row's lowest
column.  A new row is reduced fraction-free against the rows in ascending
pivot order (``p*v - v[p]*row`` over their gcd, then divided by its content),
and ``basis`` back-substitutes once into the reduced row echelon form.  A
batch given to the constructor is added sparsest row first: on the
near-triangular Leibniz systems of ``derivations`` plain insertion order
makes ``matrix_rank`` about seven times slower.  The constructor stops at a
full span (``dim == ncols``): no further row could change the span, its
reduced form or its kernel, and a weight system of many rows in few columns
often gets there early.  ``nullspace``, ``matrix_rank`` and
``invert_matrix`` (the reduced form of ``[A | I]`` is ``[I | A^-1]``) read
their answers off it.

A stored row may be the caller's own dict (a target dict of ``scaled_ad``,
say), not a copy.  That holds only because no code changes a row in place:
``_eliminate`` and ``_reduced`` build new dicts, and every reader of
``integer_basis`` or of a row it handed to ``RowSpace`` treats it as read
only.  Any new code must keep to that rule.

No output depends on the order of elimination.  Every pivot is the lowest
column of some vector of the span, so the pivot set is that of the reduced
echelon form; given the pivots, the reduced form and the kernel vectors (1 at
one free column, 0 at the others) are unique.
"""

from __future__ import annotations

import re
from bisect import insort
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add

Monomial = tuple  # exponent vector, one entry per declared parameter

_ZERO, _ONE = Fraction(0), Fraction(1)  # shared entries of dense matrices (a Fraction is immutable)


class QflabError(Exception):
    """Base class for all errors raised by this package."""


class MissingParameterError(QflabError):
    pass


class SingularMatrixError(QflabError):
    pass


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _grlex_term_key(term):
    return (sum(term[0]), term[0])


def _canonical(params: tuple[str, ...], terms: Iterable) -> "Poly":
    """The Poly of distinct ``(monomial, Fraction)`` terms over ``params``,
    which it trusts to be well formed (see the module docstring)."""
    items = [term for term in terms if term[1]]
    items.sort(key=_grlex_term_key, reverse=True)
    return Poly(params, tuple(items))


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial over Q in a fixed, ordered tuple of parameter names.

    ``terms`` holds ``(monomial, coefficient)`` pairs sorted in descending
    graded-lexicographic order with no zero coefficients, so two equal
    polynomials have identical representations.
    """

    params: tuple[str, ...]
    terms: tuple[tuple[Monomial, Fraction], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_map(params: Sequence[str], mapping: Mapping[Monomial, Fraction]) -> "Poly":
        params = tuple(params)
        items = [(tuple(m), rat(c)) for m, c in mapping.items() if c != 0]
        for mono, _ in items:
            if len(mono) != len(params):
                raise ValueError("monomial length does not match parameter universe")
        return _canonical(params, items)

    @staticmethod
    def const(params: Sequence[str], value) -> "Poly":
        value = rat(value)
        if value == 0:
            return Poly(tuple(params), ())
        return Poly(tuple(params), (((0,) * len(params), value),))

    @staticmethod
    def zero(params: Sequence[str]) -> "Poly":
        return Poly(tuple(params), ())

    @staticmethod
    def variable(params: Sequence[str], name: str) -> "Poly":
        params = tuple(params)
        idx = params.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(params)))
        return Poly(params, ((mono, Fraction(1)),))

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m, _ in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise MissingParameterError(f"{self} is not a constant")
        return self.terms[0][1]

    def total_degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.params != self.params:
                raise ValueError(
                    f"parameter universes differ: {self.params} vs {other.params}"
                )
            return other
        return Poly.const(self.params, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            if m in acc:
                acc[m] += c
            else:
                acc[m] = c
        return _canonical(self.params, acc.items())

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.params, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            if m in acc:
                acc[m] -= c
            else:
                acc[m] = -c
        return _canonical(self.params, acc.items())

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(map(add, m1, m2))
                if m in acc:
                    acc[m] += c1 * c2
                else:
                    acc[m] = c1 * c2
        return _canonical(self.params, acc.items())

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Substitute rationals for every parameter occurring in the polynomial.

        The sum is taken in integers by ``_integer_value``, and one
        ``Fraction`` is built at the end."""
        values = [None if (v := assignment.get(name)) is None else rat(v) for name in self.params]
        d = lcm(*(v.denominator for v in values if v is not None))
        nums = [None if v is None else v.numerator * (d // v.denominator) for v in values]
        return Fraction(*_integer_value(self, nums, d))

    # -- canonical text form -------------------------------------------------

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        """The text of ``__str__``, built once: sorting a constraint set breaks
        ties by it, and an interned generator is in many sets."""
        if not self.terms:
            return "0"
        out: list[str] = []
        for mono, coeff in self.terms:
            num, den = coeff.numerator, coeff.denominator
            out.append(" - " if num < 0 else " + ")
            num = abs(num)
            body = "*".join(name if exp == 1 else f"{name}^{exp}"
                            for name, exp in zip(self.params, mono) if exp)
            if not body:
                out.append(str(num) if den == 1 else f"{num}/{den}")
            elif num == 1 and den == 1:
                out.append(body)
            else:
                out.append(f"{num}*{body}" if den == 1 else f"{num}/{den}*{body}")
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poly({self})"


def _integer_value(poly: Poly, nums: Sequence[int | None], d: int) -> tuple[int, int]:
    """``(total, den)`` with total / den = ``poly`` at the values nums[p] / d.

    The coefficients are put over their common denominator c and each term
    is multiplied by d^(deg - |m|), deg the total degree, so ``total`` is an
    integer sum and ``den`` = c * d^deg; ``total`` is 0 exactly when the value
    is.  A value of ``None`` raises ``MissingParameterError`` once its
    parameter occurs."""
    if not poly.terms:
        return 0, 1
    scale = lcm(*(c.denominator for _, c in poly.terms))
    deg = sum(poly.terms[0][0])
    total = 0
    for mono, coeff in poly.terms:
        value = coeff.numerator if scale == 1 else coeff.numerator * (scale // coeff.denominator)
        rest = deg
        for name, x, exp in zip(poly.params, nums, mono):
            if exp:
                if x is None:
                    raise MissingParameterError(f"no value assigned to {name}")
                value *= x if exp == 1 else x ** exp
                rest -= exp
        total += value * d ** rest if rest and d != 1 else value
    return total, scale * d ** deg


_TERM_RE = re.compile(r"^(?P<coeff>-?\d+(?:/\d+)?)?(?:\*?(?P<rest>[A-Za-z].*))?$")
# a '^' with the spaces and sign after it, or a sign that splits two terms
_SPLIT_RE = re.compile(r"\^\s*[+-]?|\s*([+-])\s*")
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_poly(text: str, params: Sequence[str]) -> Poly:
    """Parse the canonical string form produced by ``str(Poly)``.

    One plain rational with a nonzero denominator is read as a constant at
    once; every other text, each one that names a parameter included, is
    split into terms."""
    params = tuple(params)
    text = text.strip()
    if text in ("", "0"):
        return Poly.zero(params)
    if _RATIONAL_RE.fullmatch(text):
        try:
            return Poly.const(params, Fraction(text))
        except ZeroDivisionError:
            pass  # the term loop below names the term
    # split into signed terms at top level (no parentheses in the format); a
    # sign after '^', spaces between them or not, belongs to the exponent,
    # which the loop rejects
    pieces, start = [], 0
    for m in _SPLIT_RE.finditer(text):
        if m.group(1):
            pieces += [text[start:m.start()], m.group(1)]
            start = m.end()
    pieces.append(text[start:])
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    if len(pieces) % 2 != 0:
        raise ValueError(f"cannot parse polynomial {text!r}")
    acc: dict[Monomial, Fraction] = {}
    index = {name: i for i, name in enumerate(params)}
    for sign, chunk in zip(pieces[::2], pieces[1::2]):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk) if chunk else None  # a dangling sign leaves ''
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        if chunk.startswith("*"):
            raise ValueError(f"no coefficient before '*' in term {chunk!r}")
        try:
            coeff = Fraction(m.group("coeff") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r}") from None
        if sign == "-":
            coeff = -coeff
        mono = [0] * len(params)
        rest = m.group("rest")
        if rest:
            for factor in rest.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError(f"cannot parse term {chunk!r}")
                if "^" in factor:
                    name, _, exp = factor.partition("^")
                    if not re.fullmatch(r"\s*\d+\s*", exp):
                        raise ValueError(f"exponent {exp!r} in term {chunk!r} "
                                         "must be a positive integer")
                    power = int(exp)
                    if power < 1:
                        raise ValueError(f"exponent {exp!r} is not positive in term {chunk!r}")
                else:
                    name, power = factor, 1
                name = name.strip()
                if name not in index:
                    raise ValueError(f"unknown parameter {name!r}")
                mono[index[name]] += power
        key = tuple(mono)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return Poly.from_map(params, acc)


# ---------------------------------------------------------------------------
# Dense helpers (small matrices over Q)
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> list[list[Fraction]]:
    """Fresh row lists that share one zero and one one (a Fraction is
    immutable), so a caller may write entries of its copy."""
    return [[_ZERO] * i + [_ONE] + [_ZERO] * (n - i - 1) for i in range(n)]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                if bk[j]:
                    row[j] += c * bk[j]
    return out


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


class RowSpace:
    """A row space over Q, kept as primitive integer rows keyed by pivot.

    A row's pivot is its lowest column and no two rows share one, so a vector
    lies in the span exactly when reducing it against the rows in ascending
    pivot order leaves nothing.  ``basis`` back-substitutes once and returns
    the reduced row echelon form.  The constructor adds its rows sparsest
    first and stops once they span every column (see the module docstring).
    """

    def __init__(self, ncols: int, rows: Iterable[dict[int, int]] = ()):
        self.ncols = ncols
        self.pivots: list[int] = []  # ascending
        self._rows: dict[int, dict[int, int]] = {}
        batch = [_primitive(row) for row in rows if row]
        batch.sort(key=lambda row: (len(row), min(row)))
        for row in batch:
            if self._insert(row) and len(self.pivots) == ncols:
                break  # a full span: no further row changes it

    def _reduce(self, v: dict[int, int]) -> dict[int, int]:
        rows = self._rows
        for p in self.pivots:
            if p in v:
                v = _eliminate(v, rows[p], p)
                if not v:
                    break
        return v

    def add(self, row: dict[int, int]) -> bool:
        """Insert an integer row ({column: value}); True when the span grew."""
        return self._insert(_primitive(row))

    def _insert(self, row: dict[int, int]) -> bool:
        """``add`` for a row that is already primitive."""
        v = self._reduce(row)
        if not v:
            return False
        pivot = min(v)
        self._rows[pivot] = v
        insort(self.pivots, pivot)
        return True

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduced(self) -> dict[int, dict[int, int]]:
        """The rows, back-substituted in place so each is 0 at every other pivot."""
        rows = self._rows
        for p in reversed(self.pivots):
            row = rows[p]
            for q in [q for q in row if q != p and q in rows]:
                row = _eliminate(row, rows[q], q)
            rows[p] = row
        return rows

    def integer_basis(self) -> list[dict[int, int]]:
        """The reduced row echelon form as primitive integer rows, lowest pivot
        first; each is a nonzero multiple of the matching row of ``basis``.
        The rows are the space's own: read only."""
        rows = self._reduced()
        return [rows[p] for p in self.pivots]

    def basis(self) -> list[tuple[Fraction, ...]]:
        """The reduced row echelon form, lowest pivot first."""
        rows = self._reduced()
        return [_pivot_one(rows[p], self.ncols) for p in self.pivots]


def _pivot_one(row: Mapping[int, int], ncols: int) -> tuple[Fraction, ...]:
    """A nonzero integer row as a ``Fraction`` vector of length ``ncols``,
    scaled to 1 at its pivot (its lowest column)."""
    vec = [Fraction(0)] * ncols
    pivot = row[min(row)]
    for col, x in row.items():
        vec[col] = Fraction(x, pivot)
    return tuple(vec)


def _integer_vector(u: Sequence[Fraction]) -> tuple[int, dict[int, int]]:
    """``(d, row)`` with u = row / d, d the common denominator of u: the one
    step from a ``Fraction`` vector to an integer row."""
    d = lcm(*(x.denominator for x in u if x))
    return d, {i: x.numerator * (d // x.denominator) for i, x in enumerate(u) if x}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    return {col: x // g for col, x in row.items()} if g > 1 else row


def _eliminate(v: dict[int, int], row: dict[int, int], col: int) -> dict[int, int]:
    """Clear column ``col`` of ``v`` with ``row`` (row[col]*v - v[col]*row, over
    their gcd), then divide by the content."""
    a, c = row[col], v[col]
    g = gcd(a, c)
    a, c = a // g, c // g
    out = {k: a * x for k, x in v.items()} if a != 1 else dict(v)
    for k, x in row.items():
        y = out.get(k, 0) - c * x
        if y:
            out[k] = y
        else:
            del out[k]
    return _primitive(out)


# ---------------------------------------------------------------------------
# Readers of the eliminator
# ---------------------------------------------------------------------------


def nullspace(rows: Iterable[dict[int, int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the kernel of the homogeneous system M x = 0, M given by its
    integer rows."""
    return _kernel(RowSpace(ncols, rows)._reduced(), ncols)


def matrix_rank(rows: Iterable[dict[int, int]], ncols: int) -> int:
    return RowSpace(ncols, rows).dim


def invert_matrix(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse, read off the reduced echelon form [I | A^-1] of [A | I];
    raises on singular input."""
    n = len(a)
    space = RowSpace(2 * n, [_integer_vector(list(row) + [int(i == j) for j in range(n)])[1]
                             for i, row in enumerate(a)])
    if space.pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    rows = space._reduced()
    return [[Fraction(x, rows[i][i]) if (x := rows[i].get(n + j)) else _ZERO for j in range(n)]
            for i in range(n)]


def _kernel(rows: Mapping[int, Mapping[int, int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """The kernel of reduced rows: one vector per free column f, 1 at f and 0
    at the other free columns."""
    kernel = []
    for f in range(ncols):
        if f in rows:
            continue
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for p, row in rows.items():
            if f in row:
                vec[p] = Fraction(-row[f], row[p])
        kernel.append(tuple(vec))
    return kernel
