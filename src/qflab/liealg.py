"""Structure-constant Lie algebras over Q with optional polynomial parameters.

An algebra stores only the brackets [X_i, X_j] with i < j; the rest follows
by antisymmetry.  Coefficients are Poly values over the algebra's declared
parameter universe, so a single representation covers both concrete algebras
and parametric families.  The constructor shares one constant ``Poly`` among
the entries of its table that give the same plain value (a ``Poly`` is
immutable).  Every algebra carries one cached integer view of its table,
``_view``: both orders of every bracket, one row per dimension, each term
keyed target-major by one int, its target times a stride plus its
monomial's code, which does not depend on the dimension (a concrete
table's stride is 1 and its keys are its targets).  ``jacobi_check`` runs
one kernel on it for any table; its report is not sorted (``lines()``
sorts).  A table made as a part plus a constant rest (``Algebra._plus``)
records that split, and the check adds to the part's own sums, memoised on
the part, only the products that touch the rest: the catalog builds each
deformation as its filiform part, shared by every dimension, plus its rest
this way.  ``scaled_ad`` is the same view for a concrete algebra and raises
on a parametric one, and the numeric entry points read it or call
``concrete()``, so a family is specialized first.
A concrete table whose stored brackets hold more than three targets on
average (a table moved to a dense basis; the catalog's hold about one) is
checked in the basis adapted to its lower central series first: the
Jacobiator is trilinear, so it vanishes in that basis exactly when it
vanishes in the given one.  Only a table that fails is checked again in the
given basis, on the view its series already built, for its report.  The
canonical key of an ``Algebra`` and its hash are built once, so the memos
keyed on an algebra do not re-sort its table on every lookup.

The numeric layers keep their vectors as sparse integer rows ``{col: int}``
from ``scaled_ad`` to the eliminator ``RowSpace``, and bracket them with the
private kernel ``_int_bracket``, which returns the bracket of two integer
rows times the view's scale.  Such a row may be any nonzero multiple of the
rational vector it stands for.  That is safe wherever a span, a rank or the
kernel of a homogeneous system is read, since no factor per vector changes
them.  Values are read exactly elsewhere: ``rational_bracket`` is the
``Fraction`` view over the same kernel, and ``change_of_basis`` divides the
factors out once per structure constant.  Both take their ``Fraction``
vectors to integer rows with ``exact._integer_vector``, the package's one
such conversion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from qflab.exact import Poly, QflabError, _integer_vector, invert_matrix, rat


class DimensionMismatchError(QflabError):
    pass


BracketTable = dict  # {(i, j): {k: Poly}} with i < j


# The rest of a catalog table holds a few constants (1, -1, halves) that
# recur in every table; a Poly is immutable, so each is made once.  Typed, so
# that a float still reaches Poly.const and its TypeError.
_constant = lru_cache(maxsize=64, typed=True)(Poly.const)
_NOTHING: Mapping = MappingProxyType({})


class Algebra:
    """An anticommutative algebra given by exact structure constants.

    Immutable by convention: no method mutates an instance, all operations
    return fresh algebras.  Equality is structural equality of the canonical
    constant table (plus dimension and parameter universe).  A table made by
    ``_plus`` records its split ``(part, rest)`` as ``_split``, which
    ``jacobi_check`` reads; every other algebra has ``None``, and equality
    and the hash ignore it.
    """

    _split: tuple["Algebra", Mapping] | None = None

    def __init__(self, dim: int, table: Mapping | None = None, params: Sequence[str] = ()):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        self.params = tuple(params)
        normalized: BracketTable = {}
        # one Poly per distinct constant; keyed on the type too, so that 1.0
        # still reaches Poly.const (and its TypeError) after a 1
        consts: dict[tuple, Poly] = {}
        for (i, j), targets in (table or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket indices ({i},{j}) out of range for i<j<{dim}")
            entry = {}
            for k, coeff in targets.items():
                if not 0 <= k < dim:
                    raise ValueError(f"target index {k} out of range")
                if isinstance(coeff, Poly):
                    poly = coeff
                elif (poly := consts.get((type(coeff), coeff))) is None:
                    poly = consts[type(coeff), coeff] = Poly.const(self.params, coeff)
                if poly.params != self.params:
                    raise ValueError("coefficient parameter universe does not match the algebra")
                if not poly.is_zero():
                    entry[k] = poly
            if entry:
                normalized[(i, j)] = entry
        self._table = normalized

    # -- canonical views -----------------------------------------------------

    def canonical(self):
        return self._key

    @cached_property
    def _key(self) -> tuple:
        """The sorted table with dimension and parameters, built once; read only."""
        return (
            self.dim,
            self.params,
            tuple(
                (i, j, tuple(sorted(targets.items())))
                for (i, j), targets in sorted(self._table.items())
            ),
        )

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Algebra) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Algebra(dim={self.dim}, brackets={len(self._table)}, params={self.params})"

    def brackets(self) -> Iterable[tuple[int, int, dict]]:
        for (i, j), targets in sorted(self._table.items()):
            yield i, j, dict(targets)

    def table(self) -> BracketTable:
        return {pair: dict(targets) for pair, targets in self._table.items()}

    def bracket_of(self, i: int, j: int) -> dict:
        """Signed bracket of two basis elements as {target: Poly}."""
        if i == j:
            return {}
        if i < j:
            return dict(self._table.get((i, j), {}))
        return {k: -c for k, c in self._table.get((j, i), {}).items()}

    # -- parameter handling --------------------------------------------------

    def specialize(self, assignment: Mapping[str, Fraction]) -> "Algebra":
        """Substitute rationals for every parameter; result has an empty universe."""
        if not self.params:
            return self
        table = {}
        for (i, j), targets in self._table.items():
            entry = {}
            for k, poly in targets.items():
                value = poly.evaluate(assignment)
                if value != 0:
                    entry[k] = value
            if entry:
                table[(i, j)] = entry
        return Algebra(self.dim, table, params=())

    def concrete(self) -> "Algebra":
        """The algebra itself; raises on a parametric one, which must be
        specialized first."""
        if self.params:
            raise QflabError("a concrete algebra is required; specialize the parameters "
                             f"{', '.join(self.params)} first")
        return self

    @cached_property
    def _view(self) -> tuple[int, int, list[dict[int, dict[int, int]]]]:
        """``(scale, base, view)``, the integer view of any table; built once and
        shared, read only.

        ``view[i][j]`` maps the key ``k * stride + code`` of each term of
        [X_i, X_j] at target k to ``scale`` times its coefficient, ``scale`` the
        common denominator of the table's, for both orders of every bracket: one
        row per dimension, ``view[i]`` the support of ad(X_i).  ``code`` is the
        term's monomial, its exponents read as digits in ``base`` = 2d + 1 (the
        first parameter the most significant, d the largest total degree of a
        stored constant), so adding two codes never carries and gives the code
        of the product, and ``stride`` = base ** nparams is above every code.
        The keys are target-major and do not depend on the dimension, so the
        sums of a part hold in any table that contains it (see
        ``jacobi_check``).  A concrete table has base 1 and stride 1: its keys
        are the targets.  Each distinct ``Poly`` of the table (the constants of
        ``__init__`` and the memoised ``aij_table`` values are shared) is
        packed once.
        """
        polys = _polys(self._table)
        scale = lcm(*(c.denominator for poly in polys.values() for _, c in poly.terms))
        base = 2 * _degree(polys) + 1
        return scale, base, _pack(self._table, polys, self.dim, len(self.params), scale, base)

    @cached_property
    def _as_part(self) -> tuple[dict[int, list], dict, dict, dict]:
        """``(by_target, sums, scaled, monomials)``, this table as the ``part``
        of a split Jacobi check (see ``jacobi_check``), built once and read
        only: its terms grouped by target, ``by_target[m]`` a list of
        ``(a, b, terms)`` with ``terms`` the keys of ``_view[a][b]`` at target m
        (a < b); its own Jacobi sums K(v, v) of ``_products``, their nonzero
        keys and decoded; and the cache of ``_decode`` that every check on the
        part shares, which grows."""
        _, base, view = self._view
        nparams = len(self.params)
        stride = base ** nparams
        by_target: dict[int, list] = {}
        for (a, b), targets in self._table.items():
            terms = view[a][b]
            for m in targets:
                by_target.setdefault(m, []).append((a, b, terms if len(targets) == 1 else
                                                    {key: c for key, c in terms.items() if key // stride == m}))
        sums = {triple: {key: c for key, c in component.items() if c}
                for triple, component in _self_products(self).items()}
        monomials: dict[int, tuple[int, ...]] = {}
        return by_target, sums, _decode(sums, stride, base, nparams, monomials), monomials

    def _plus(self, rest: Mapping, dim: int) -> "Algebra":
        """This table plus ``rest``, ``{(i, j): {k: constant}}`` with i < j < dim,
        in dimension ``dim`` (at least this one's), without checking this
        table's Polys again: an entry ``rest`` does not touch is shared, each
        constant of ``rest`` becomes a shared ``Poly``, and a target the two
        share is summed.  In an entry both touch, the targets of ``rest`` come
        first.  The table records the split ``(self, rest)`` as ``_split``, so
        ``jacobi_check`` adds the products that touch ``rest`` to this table's
        own sums; ``rest`` is held, not copied, and is read only."""
        params = self.params
        table = dict(self._table)
        for pair, targets in rest.items():
            entry = {}
            for k, c in targets.items():
                if (poly := _constant(params, c)).terms:
                    entry[k] = poly
            for k, poly in table.get(pair, _NOTHING).items():
                if k not in entry:
                    entry[k] = poly
                elif (total := entry[k] + poly).terms:
                    entry[k] = total
                else:
                    del entry[k]
            if entry:
                table[pair] = entry
            else:
                table.pop(pair, None)
        algebra = Algebra._checked(dim, params, table)
        algebra._split = (self, rest)
        return algebra

    @classmethod
    def _checked(cls, dim: int, params: tuple[str, ...], table: BracketTable) -> "Algebra":
        """An algebra on ``table`` as is, whose indices are in range and whose
        constants are nonzero Polys over ``params``, checked by the caller."""
        algebra = cls.__new__(cls)
        algebra.dim, algebra.params, algebra._table = dim, params, table
        return algebra

    @property
    def scaled_ad(self) -> tuple[int, list[dict[int, dict[int, int]]]]:
        """``(scale, view)`` of ``_view`` for a concrete algebra, whose keys are
        the targets: [X_i, X_j] = sum_k view[i][j][k] / scale X_k.  Raises on a
        parametric one, as every numeric reader must."""
        scale, _, view = self.concrete()._view
        return scale, view


def abelian(dim: int, params: Sequence[str] = ()) -> Algebra:
    return Algebra(dim, {}, params=params)


def _polys(table: Mapping) -> dict[int, Poly]:
    """Each distinct ``Poly`` object of a table, keyed by its id."""
    return {id(poly): poly for targets in table.values() for poly in targets.values()}


def _degree(polys: Mapping[int, Poly]) -> int:
    # the leading grlex term of a stored (nonzero) constant has its total degree
    return max((sum(poly.terms[0][0]) for poly in polys.values()), default=0)


def _pack(table: Mapping, polys: Mapping[int, Poly], dim: int, nparams: int, scale: int,
          base: int) -> list[dict[int, dict[int, int]]]:
    """The view of ``Algebra._view`` of ``table`` in dimension ``dim`` at a
    given ``scale`` (a multiple of every denominator) and ``base`` (above twice
    every degree); ``polys`` are the table's (``_polys``)."""
    places = [base ** p for p in reversed(range(nparams))]
    stride = base ** nparams
    shifts: dict[tuple, int] = {}  # the code of each distinct monomial
    packed: dict[int, list[tuple[int, int]]] = {}
    for key, poly in polys.items():
        terms = packed[key] = []
        for mono, c in poly.terms:
            shift = shifts.get(mono)
            if shift is None:
                shift = shifts[mono] = sum(map(mul, mono, places))
            terms.append((shift, c.numerator * (scale // c.denominator)))
    view: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
    for (i, j), targets in table.items():
        forward = view[i][j] = {}
        for k, poly in targets.items():
            key = k * stride
            for shift, c in packed[id(poly)]:
                forward[key + shift] = c
        view[j][i] = {key: -c for key, c in forward.items()}
    return view


# ---------------------------------------------------------------------------
# Bracket evaluation and the Jacobi report
# ---------------------------------------------------------------------------


_ZERO = Fraction(0)


def _int_bracket(ad: list[dict[int, dict[int, int]]], u: Mapping[int, int],
                 v: Mapping[int, int]) -> dict[int, int]:
    """The nonzero entries of sum u_i v_j view[i][j] for integer rows u and v
    ({col: int}) and the view of ``scaled_ad``: the bracket [u, v] times the
    view's scale.  Walks only the support of ``u``."""
    out: dict[int, int] = {}
    for i, ui in u.items():
        for j, targets in ad[i].items():
            vj = v.get(j)
            if vj:
                w = ui * vj
                for k, c in targets.items():
                    out[k] = out.get(k, 0) + w * c
    return {k: x for k, x in out.items() if x}


def rational_bracket(algebra: Algebra, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    """Bracket of Fraction coordinate vectors of a concrete algebra.

    u and v are scaled to integer rows by their common denominators and
    bracketed by the integer kernel; the scales are divided out once per
    coordinate at the end.
    """
    if len(u) != algebra.dim or len(v) != algebra.dim:
        raise DimensionMismatchError(
            f"vectors of length {len(u)} and {len(v)} for an algebra of dimension {algebra.dim}")
    scale, ad = algebra.scaled_ad
    du, iu = _integer_vector(u)
    dv, iv = _integer_vector(v)
    scale *= du * dv
    out = [_ZERO] * algebra.dim
    for k, x in _int_bracket(ad, iu, iv).items():
        out[k] = Fraction(x, scale)
    return out


class JacobiReport:
    """Nonzero residuals of the Jacobi identity, keyed by basis triple i<j<k.

    ``scaled[triple][b]`` maps each monomial in ``params`` to the integer
    coefficient of X_b in the residual times ``square``; no component is
    zero.  ``residuals`` is the same report as ``{triple: {b: Poly}}``, built
    only when it is read.
    """

    def __init__(self, params: tuple[str, ...], scaled: Mapping, square: int):
        self.params = params
        self.scaled = scaled
        self.square = square

    @cached_property
    def residuals(self) -> dict[tuple, dict[int, Poly]]:
        return {triple: {b: Poly.from_map(self.params, {m: Fraction(c, self.square)
                                                        for m, c in coeffs.items()})
                         for b, coeffs in components.items()}
                for triple, components in self.scaled.items()}

    @property
    def ok(self) -> bool:
        return not self.scaled

    def __len__(self):
        return len(self.scaled)

    def lines(self) -> list[str]:
        out = []
        for (i, j, k), components in sorted(self.residuals.items()):
            for b, poly in sorted(components.items()):
                out.append(f"J(X{i},X{j},X{k})[X{b}] = {poly}")
        return out

    def __repr__(self):
        return "JacobiReport(ok)" if self.ok else f"JacobiReport({len(self.scaled)} bad triples)"


def _unpack(code: int, base: int, nparams: int) -> tuple[int, ...]:
    """The exponent tuple of a monomial code of ``Algebra._view``; with base 1
    every code is 0, and so is every exponent."""
    exponents = [0] * nparams
    for p in reversed(range(nparams)):
        code, exponents[p] = divmod(code, base)
    return tuple(exponents)


def _products(sums: dict, inner: Iterable[tuple[int, int, Mapping[int, int]]],
              outer: Sequence[Mapping[int, Mapping[int, int]]], stride: int, mult: int = 1) -> None:
    """Add K(inner, outer) to the Jacobi sums ``sums``: the terms of
    [[Xa,Xb],Xc] with [Xa,Xb] read in the inner table and the bracket with Xc
    in the outer one, each times ``mult``.  ``inner`` gives terms of stored
    brackets, ``(a, b, terms)`` with a < b and ``terms`` keys of
    ``Algebra._view`` at ``stride``; ``outer`` is a view.  ``sums[triple]``
    maps the key ``e * stride + code`` of each term of the sorted triple's
    residual to its integer coefficient, zeros kept."""
    for a, b, terms in inner:
        for key, coeff in terms.items():
            m = key // stride
            shift = key - m * stride  # the code of the term's monomial
            coeff *= mult
            # the terms [[Xa,Xb],Xc]: in the cyclic sum of the sorted triple
            # i<j<k one is [[Xi,Xj],Xk] or [[Xj,Xk],Xi], except when a < c < b,
            # where it is [[Xk,Xi],Xj], read with the pair reversed
            for c, targets in outer[m].items():
                if c > b:
                    triple, factor = (a, b, c), coeff
                elif c < a:
                    triple, factor = (c, a, b), coeff
                elif c != a and c != b:
                    triple, factor = (a, c, b), -coeff
                else:
                    continue
                component = sums.get(triple)
                if component is None:
                    component = sums[triple] = {}
                for e, d in targets.items():
                    e += shift
                    component[e] = component.get(e, 0) + factor * d


def _self_products(algebra: Algebra) -> dict:
    """K(v, v), the Jacobi sums of a table on its own view."""
    _, base, view = algebra._view
    sums: dict = {}
    _products(sums, ((a, b, view[a][b]) for a, b in algebra._table), view,
              base ** len(algebra.params))
    return sums


def _decode(sums: Mapping, stride: int, base: int, nparams: int,
            monomials: dict[int, tuple[int, ...]]) -> dict:
    """The nonzero Jacobi sums as ``JacobiReport.scaled``: each key split by
    ``divmod(key, stride)`` into its target and its monomial's code, each
    distinct code decoded once into ``monomials``, a cache code -> exponents."""
    scaled = {}
    for triple, component in sums.items():
        nonzero: dict[int, dict] = {}
        for key, c in component.items():
            if c:
                e, code = divmod(key, stride)
                mono = monomials.get(code)
                if mono is None:
                    mono = monomials[code] = _unpack(code, base, nparams)
                nonzero.setdefault(e, {})[mono] = c
        if nonzero:
            scaled[triple] = nonzero
    return scaled


def _jacobi(algebra: Algebra) -> JacobiReport:
    """The Jacobi report of a table in its given basis, summed on the keys of
    ``Algebra._view``; see ``jacobi_check``.  The report is not sorted."""
    scale, base, _ = algebra._view
    nparams = len(algebra.params)
    scaled = _decode(_self_products(algebra), base ** nparams, base, nparams, {})
    return JacobiReport(algebra.params, scaled, scale * scale)


def _split_jacobi(algebra: Algebra) -> JacobiReport:
    """``_jacobi(algebra)`` for a table made by ``Algebra._plus``: its part's
    own sums, memoised on the part, plus the products that touch the rest,
    packed at the part's stride; see ``jacobi_check``."""
    part, rest = algebra._split
    nparams = len(algebra.params)
    scale, base, view = part._view
    stride = base ** nparams
    common = lcm(scale, *(c.denominator for targets in rest.values() for c in targets.values()))
    mult, square = common // scale, (common // scale) ** 2
    # the rest is constant: its keys are its targets at the part's stride
    rest_view: list[dict[int, dict[int, int]]] = [{} for _ in range(algebra.dim)]
    for (a, b), targets in rest.items():
        terms = rest_view[a][b] = {k * stride: c.numerator * (common // c.denominator)
                                   for k, c in targets.items()}
        rest_view[b][a] = {key: -c for key, c in terms.items()}
    rest_terms = [(a, b, rest_view[a][b]) for a, b in rest]
    by_target, own, own_scaled, monomials = part._as_part
    sums: dict = {}
    _products(sums, (t for m, row in enumerate(rest_view) if row for t in by_target.get(m, ())),
              rest_view, stride, mult)
    # the rows the part lacks are empty
    _products(sums, rest_terms, view + [_NOTHING] * (algebra.dim - part.dim), stride, mult)
    _products(sums, rest_terms, rest_view, stride)
    for triple, component in sums.items():
        for key, c in own.get(triple, {}).items():
            component[key] = component.get(key, 0) + square * c
    scaled = {triple: components if square == 1 else
              {e: {mono: square * c for mono, c in coeffs.items()} for e, coeffs in components.items()}
              for triple, components in own_scaled.items() if triple not in sums}
    scaled.update(_decode(sums, stride, base, nparams, monomials))
    return JacobiReport(algebra.params, scaled, common * common)


# A concrete table whose stored brackets hold more targets than this on
# average is dense: ``jacobi_check`` decides it in its series-adapted basis.
_DENSE_TARGETS = 3


def jacobi_check(algebra: Algebra) -> JacobiReport:
    """Residuals [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj] for all i<j<k.

    An empty report means the Jacobi identity holds identically in the
    parameters.  Triples not of the form i<j<k are forced by antisymmetry.
    Only the nonzero terms are visited, so the cost is proportional to the
    nonzero products of structure constants, not to dim^3.  The kernel reads
    ``Algebra._view``: every coefficient is multiplied by the common
    denominator of the table, so each residual comes out scaled by its
    square, and a term's key is its target times the stride base ** nparams
    plus its monomial's code in base 2d + 1, so adding two keys' codes
    multiplies the monomials.  Each key of the sums is split by
    ``divmod(key, stride)`` once, when the report is built, and that report is
    not sorted: ``lines()`` sorts, ``residuals`` compares as a dict and
    ``catalog`` reads it into a set.  The report is read only: a split report
    shares components with its part.

    A table made by ``Algebra._plus`` is split as μ = σ + ρ, σ the part (a
    table of at most the algebra's dimension over its parameters, read as one
    with empty rows above its own) and ρ the rest of constants, both as
    recorded in ``algebra._split``.  The Jacobiator is bilinear in the table,
    so J(σ + ρ) = K(σ,σ) + K(σ,ρ) + K(ρ,σ) + K(ρ,ρ), K(inner, outer) the one
    kernel ``_products`` (and ``_jacobi`` is K(μ,μ)).  K(σ,σ) is memoised on
    the part, with its terms by target, so a check pays only for the products
    that touch ρ: K(σ,ρ) reads the part's terms whose target has a row in ρ.
    ρ is constant, so its terms are packed at the part's stride with the code
    0 and adding them never carries.  The catalog's part (a filiform chain and
    its a_{i,j} line) is shared by many tables and its rest is each table's
    own constants.  The keys do not depend on the dimension, so a part's sums
    serve the tables of every dimension that contain it.  The split report
    has the same ``residuals``; it is scaled by the square of the common
    denominator of part and rest, which may differ from the table's, so two
    equal algebras may give reports with different ``square`` and ``scaled``.

    A concrete table is dense when its stored brackets hold more than
    ``_DENSE_TARGETS`` targets on average; the catalog's tables and their
    adapted and graded tables up to n = 13 hold at most 1.25, ``Ln`` and
    ``Qn`` at n = 400 and 2000 exactly one.  A dense table is first checked
    in the basis adapted to its lower central series
    (``gradation.series_adapted``, memoised, so ``type_of``, ``gr`` and
    ``derivation_dim`` of the same table then read it for free), where a
    nilpotent algebra has few constants.  The Jacobiator is trilinear, so it
    vanishes on every basis triple of one basis exactly when it vanishes
    identically, in every basis: an adapted table that passes answers for
    the given one, with the given table's ``square``.  A dense table that
    fails there, or whose series does not reach 0, is checked again in the
    given basis, on the view its series built, so every report names the
    given basis; it pays for its series on top.  A split check is never
    moved to the adapted basis.
    """
    if algebra._split is not None:
        return _split_jacobi(algebra)
    if not algebra.params:
        table = algebra._table
        if sum(map(len, table.values())) > _DENSE_TARGETS * len(table):
            from qflab.gradation import NonNilpotentError, series_adapted

            try:
                adapted, _ = series_adapted(algebra)
            except NonNilpotentError:
                pass
            else:
                if _jacobi(adapted).ok:
                    scale = algebra._view[0]
                    return JacobiReport((), {}, scale * scale)
    return _jacobi(algebra)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def change_of_basis(algebra: Algebra, P: Sequence[Sequence[Fraction]]) -> Algebra:
    """Rewrite a concrete algebra in the basis Y_i = sum_j P[i][j] X_j.

    P must be exactly invertible.  Jacobi validity, lower-central-series
    dimensions and the derivation algebra dimension are all preserved.
    """
    n = algebra.concrete().dim
    if len(P) != n or any(len(row) != n for row in P):
        raise DimensionMismatchError("change-of-basis matrix has wrong shape")
    rows = [[rat(x) for x in row] for row in P]
    inverse = invert_matrix(rows)  # raises SingularMatrixError
    # every structure constant is an integer over scale * d_a * d_b * d_inv
    scale, ad = algebra.scaled_ad
    d_inv = lcm(*(c.denominator for row in inverse for c in row if c))
    inverse_rows = [[(t, c.numerator * (d_inv // c.denominator)) for t, c in enumerate(row) if c]
                    for row in inverse]
    vectors = [_integer_vector(row) for row in rows]
    table: BracketTable = {}
    for a in range(n):
        d_a, u = vectors[a]
        for b in range(a + 1, n):
            d_b, v = vectors[b]
            entry: dict[int, int] = {}
            for jj, x in _int_bracket(ad, u, v).items():  # old coordinates
                for t, c in inverse_rows[jj]:
                    entry[t] = entry.get(t, 0) + x * c
            den = scale * d_a * d_b * d_inv
            entry = {t: Fraction(c, den) for t, c in sorted(entry.items()) if c}
            if entry:
                table[(a, b)] = entry
    return Algebra(n, table)
