"""Exact arithmetic kernel: rationals, sparse multivariate polynomials and
fraction-free linear solving over Q.

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
in the same step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Mapping, Sequence

Rational = Fraction

Monomial = tuple  # exponent vector, one entry per declared parameter


class QflabError(Exception):
    """Base class for all errors raised by this package."""


class MissingParameterError(QflabError):
    pass


class InconsistentSystemError(QflabError):
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

    def constant_term(self) -> Fraction:
        for m, c in self.terms:
            if sum(m) == 0:
                return c
        return Fraction(0)

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

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Poly.const(self.params, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Substitute rationals for every parameter occurring in the polynomial."""
        values = [assignment.get(name) for name in self.params]
        total = Fraction(0)
        for mono, coeff in self.terms:
            value = coeff
            for name, v, exp in zip(self.params, values, mono):
                if exp:
                    if v is None:
                        raise MissingParameterError(f"no value assigned to {name}")
                    value *= rat(v) ** exp
            total += value
        return total

    def lift(self, params: Sequence[str]) -> "Poly":
        """Re-embed into a larger parameter universe (by name)."""
        params = tuple(params)
        index = {name: i for i, name in enumerate(params)}
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms:
            new = [0] * len(params)
            for name, exp in zip(self.params, mono):
                if exp:
                    if name not in index:
                        raise ValueError(f"parameter {name} missing from target universe")
                    new[index[name]] = exp
            acc[tuple(new)] = acc.get(tuple(new), Fraction(0)) + coeff
        return Poly.from_map(params, acc)

    # -- canonical text form -------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.terms:
            factors = []
            for name, exp in zip(self.params, mono):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            if not factors:
                body = rat_str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = rat_str(abs(coeff)) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poly({self})"


_TERM_RE = re.compile(r"^(?P<coeff>-?\d+(?:/\d+)?)?(?:\*?(?P<rest>[A-Za-z].*))?$")


def parse_poly(text: str, params: Sequence[str]) -> Poly:
    """Parse the canonical string form produced by ``str(Poly)``."""
    params = tuple(params)
    text = text.strip()
    if text in ("", "0"):
        return Poly.zero(params)
    # split into signed terms at top level (no parentheses in the format)
    pieces = re.split(r"\s*([+-])\s*", text)
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    if len(pieces) % 2 != 0:
        raise ValueError(f"cannot parse polynomial {text!r}")
    acc: dict[Monomial, Fraction] = {}
    index = {name: i for i, name in enumerate(params)}
    for sign, chunk in zip(pieces[::2], pieces[1::2]):
        m = _TERM_RE.match(chunk.strip())
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
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
                    power = int(exp)
                else:
                    name, power = factor, 1
                if name not in index:
                    raise ValueError(f"unknown parameter {name!r}")
                mono[index[name]] += power
        key = tuple(mono)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return Poly.from_map(params, acc)


# ---------------------------------------------------------------------------
# Dense helpers (small matrices over Q)
# ---------------------------------------------------------------------------

Matrix = list  # list of list of Fraction, row major


def identity_matrix(n: int) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


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


def invert_matrix(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    aug = [[rat(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class RowSpace:
    """Incrementally maintained row space over Q with a reduced echelon basis.

    Pivot columns are chosen lowest-index first, so the basis is canonical for
    a given insertion-independent span.
    """

    def __init__(self, ncols: int, rows: Iterable[Sequence[Fraction]] = ()):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []  # RREF, sorted by pivot column
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def _reduce(self, vec: Sequence[Fraction]) -> list[Fraction]:
        v = [rat(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                c = v[p]
                for j in range(p, self.ncols):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self._reduce(vec))

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert a vector; returns True when it enlarged the space."""
        v = self._reduce(vec)
        pivot = next((j for j, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        inv = v[pivot]
        v = [x / inv for x in v]
        for row in self.rows:
            if row[pivot] != 0:
                c = row[pivot]
                for j in range(self.ncols):
                    if v[j]:
                        row[j] -= c * v[j]
        at = next((idx for idx, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[tuple[Fraction, ...]]:
        return [tuple(row) for row in self.rows]


# ---------------------------------------------------------------------------
# Fraction-free sparse elimination
# ---------------------------------------------------------------------------


def _row_to_int(row: Mapping[int, Fraction]) -> dict[int, int]:
    """Scale a sparse rational row to coprime integers (content removed)."""
    items = [(c, rat(v)) for c, v in row.items() if v != 0]
    if not items:
        return {}
    denom_lcm = 1
    for _, v in items:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = {c: int(v * denom_lcm) for c, v in items}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _reduce_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class _SparseEchelon:
    """Fraction-free Gauss-Jordan elimination on sparse integer rows.

    Rows are cross-multiplied (new = pivot*row - coeff*pivot_row) and reduced
    by their integer content after each update, which keeps every intermediate
    value an exact integer while bounding growth.  Pivots are picked from the
    sparsest remaining row, which handles the near-triangular Leibniz systems
    produced elsewhere in the package efficiently.
    """

    def __init__(self, rows: Iterable[Mapping[int, Fraction]], rhs_col: int | None):
        self.rhs_col = rhs_col
        self.pivot_rows: list[tuple[int, dict[int, int]]] = []  # (pivot col, row)
        seen: set[tuple] = set()
        self.active: list[dict[int, int]] = []
        for row in rows:
            r = _row_to_int(row)
            if not r:
                continue
            key = tuple(sorted(r.items()))
            if key in seen:
                continue
            seen.add(key)
            self.active.append(r)
        self._run()

    def _check_consistency(self, row: dict[int, int]) -> bool:
        # a row supported on the right-hand side column alone is 0 = nonzero
        if self.rhs_col is not None and set(row) == {self.rhs_col}:
            raise InconsistentSystemError("no solution exists")
        return bool(row)

    def _run(self) -> None:
        while True:
            self.active = [r for r in self.active if self._check_consistency(r)]
            if not self.active:
                return
            best = min(
                range(len(self.active)),
                key=lambda i: (len(self.active[i]), min(self.active[i])),
            )
            row = self.active.pop(best)
            pivot_col = min(c for c in row if c != self.rhs_col)
            pivot_val = row[pivot_col]
            # eliminate the pivot column everywhere else
            updated_pivots: list[tuple[int, dict[int, int]]] = []
            for pc, pr in self.pivot_rows:
                updated_pivots.append((pc, self._eliminate(pr, row, pivot_col, pivot_val)))
            self.pivot_rows = updated_pivots
            self.active = [
                self._eliminate(r, row, pivot_col, pivot_val) for r in self.active
            ]
            self.active = [r for r in self.active if r]
            self.pivot_rows.append((pivot_col, row))

    @staticmethod
    def _eliminate(row: dict[int, int], pivot_row: dict[int, int], pivot_col: int, pivot_val: int) -> dict[int, int]:
        coeff = row.get(pivot_col)
        if not coeff:
            return row
        out: dict[int, int] = {}
        for c, v in row.items():
            out[c] = pivot_val * v
        for c, v in pivot_row.items():
            out[c] = out.get(c, 0) - coeff * v
        out = {c: v for c, v in out.items() if v}
        return _reduce_content(out)

    def pivot_cols(self) -> list[int]:
        return sorted(pc for pc, _ in self.pivot_rows)


@dataclass(frozen=True)
class LinearSolution:
    """A particular solution together with a basis of the homogeneous kernel."""

    particular: tuple[Fraction, ...]
    kernel: tuple[tuple[Fraction, ...], ...]


def solve_linear(
    rows: Sequence[Sequence[Fraction]] | Sequence[Mapping[int, Fraction]],
    rhs: Sequence[Fraction],
    ncols: int | None = None,
) -> LinearSolution:
    """Solve M x = rhs exactly; raises InconsistentSystemError when unsolvable.

    Accepts dense rows (sequences) or sparse rows (index -> value mappings,
    in which case ``ncols`` is required).
    """
    sparse_rows, ncols = _normalize_rows(rows, ncols)
    if len(rhs) != len(sparse_rows):
        raise ValueError("rhs length does not match the number of rows")
    rhs_col = ncols
    augmented = []
    for row, b in zip(sparse_rows, rhs):
        r = dict(row)
        if b != 0:
            r[rhs_col] = rat(b)
        augmented.append(r)
    ech = _SparseEchelon(augmented, rhs_col)
    pivot_cols = set(ech.pivot_cols())
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    particular = [Fraction(0)] * ncols
    for pc, row in ech.pivot_rows:
        particular[pc] = Fraction(row.get(rhs_col, 0), row[pc])
    kernel = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for pc, row in ech.pivot_rows:
            if f in row:
                vec[pc] = Fraction(-row[f], row[pc])
        kernel.append(tuple(vec))
    return LinearSolution(tuple(particular), tuple(kernel))


def nullspace(
    rows: Sequence[Sequence[Fraction]] | Sequence[Mapping[int, Fraction]],
    ncols: int | None = None,
) -> list[tuple[Fraction, ...]]:
    """Basis of the kernel of the homogeneous system M x = 0."""
    sparse_rows, ncols = _normalize_rows(rows, ncols)
    ech = _SparseEchelon(sparse_rows, None)
    pivot_cols = set(ech.pivot_cols())
    kernel = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for pc, row in ech.pivot_rows:
            if f in row:
                vec[pc] = Fraction(-row[f], row[pc])
        kernel.append(tuple(vec))
    return kernel


def matrix_rank(
    rows: Sequence[Sequence[Fraction]] | Sequence[Mapping[int, Fraction]],
    ncols: int | None = None,
) -> int:
    sparse_rows, _ = _normalize_rows(rows, ncols)
    return len(_SparseEchelon(sparse_rows, None).pivot_rows)


def _normalize_rows(rows, ncols):
    sparse_rows: list[dict[int, Fraction]] = []
    width = ncols
    for row in rows:
        if isinstance(row, Mapping):
            if ncols is None:
                raise ValueError("ncols is required for sparse input")
            sparse_rows.append({c: rat(v) for c, v in row.items() if v != 0})
        else:
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged matrix")
            sparse_rows.append({j: rat(v) for j, v in enumerate(row) if v != 0})
    if width is None:
        raise ValueError("cannot infer the number of columns")
    return sparse_rows, width
