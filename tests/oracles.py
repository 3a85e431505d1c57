"""Independent brute-force reference implementations used only by the tests.

These are deliberately written with no code shared with the package: plain
dense Gaussian elimination, a dense fraction-free rank, naive span growing,
a dense derivation-space eliminator, a Leibniz check, a block sum of raw
tables and the signed bracket of two basis elements read from an algebra's
table.  They exist to cross-check the production routines.

``staged_cn_to_qn`` is the one exception: it keeps the earlier Cn -> Qn
elimination, which rewrites the whole algebra with the package's
``change_of_basis`` after every stage, as the reference for the composed
transform of ``isomorphy.cn_to_qn_transform``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from qflab import catalog
from qflab.liealg import change_of_basis


def dense_solve(matrix, rhs):
    """Plain dense Gaussian elimination over Q.

    Returns (particular, kernel_basis) or None when the system has no
    solution.  Rows/entries may be ints or Fractions.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    nrows = len(m)
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    particular = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        particular[c] = m[row_idx][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            v[c] = -m[row_idx][f]
        kernel.append(tuple(v))
    return [tuple(particular), kernel]


def dense_rank(matrix):
    """Rank by dense forward elimination over the integers.

    Each row is scaled to integers first.  At each pivot only the rows below
    with a nonzero entry in the pivot column change: such a row becomes
    (p/g) row - (f/g) pivot_row, p the pivot, f its entry and g = gcd(p, f),
    divided by the gcd of its entries.  On the sparse Leibniz systems of
    ``dense_derivation_dim`` that skips most rows.
    """
    rows = []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))  # ints and Fractions alike
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pivot_row = rows[rank]
        pivot = pivot_row[c]
        support = [(k, y) for k, y in enumerate(pivot_row) if y]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                g = gcd(pivot, f)
                row = [pivot // g * x for x in rows[i]]
                for k, y in support:
                    row[k] -= f // g * y
                content = gcd(*row)
                rows[i] = [x // content for x in row] if content > 1 else row
        rank += 1
    return rank


class NaiveSpan:
    """Row span maintained by storing raw vectors and testing membership by
    re-eliminating from scratch (quadratic and dumb on purpose)."""

    def __init__(self, ncols, vectors=()):
        self.ncols = ncols
        self.vectors = []
        for vec in vectors:
            self.add(vec)

    def contains(self, vec):
        if all(x == 0 for x in vec):
            return True
        rows = [list(v) for v in self.vectors]
        if not rows:
            return False
        sol = dense_solve(
            [[rows[i][j] for i in range(len(rows))] for j in range(self.ncols)],
            list(vec),
        )
        return sol is not None

    def add(self, vec):
        if self.contains(vec):
            return False
        self.vectors.append([Fraction(x) for x in vec])
        return True

    @property
    def dim(self):
        return len(self.vectors)


def bracket_of(algebra, i, j):
    """Signed bracket [X_i, X_j] of an algebra as {target: Poly}, read from
    ``algebra.table()``, which stores only i < j."""
    if i < j:
        return algebra.table().get((i, j), {})
    return {k: -c for k, c in algebra.table().get((j, i), {}).items()}


def bracket_of_vectors(table, n, u, v):
    """Bilinear bracket of coordinate vectors given {(i, j): {k: coeff}}, i < j."""
    out = [Fraction(0)] * n
    for (i, j), targets in table.items():
        w = u[i] * v[j] - u[j] * v[i]
        if w == 0:
            continue
        for k, c in targets.items():
            out[k] += w * Fraction(c)
    return out


def block_sum(table_a, dim_a, table_b):
    """Raw table of the block sum: table_b's indices shifted past dim_a, and
    every bracket between the two blocks zero."""
    out = {pair: dict(targets) for pair, targets in table_a.items()}
    for (i, j), targets in table_b.items():
        out[(i + dim_a, j + dim_a)] = {k + dim_a: c for k, c in targets.items()}
    return out


def leibniz_holds(table, n, D):
    """Whether the matrix D (columnwise: D X_j = sum_a D[a][j] X_a) satisfies
    D[x, y] = [Dx, y] + [x, Dy] on every pair of basis vectors."""
    unit = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def apply(x):
        return [sum((D[a][b] * x[b] for b in range(n)), Fraction(0)) for a in range(n)]

    for i in range(n):
        for j in range(i + 1, n):
            lhs = apply(bracket_of_vectors(table, n, unit[i], unit[j]))
            left = bracket_of_vectors(table, n, apply(unit[i]), unit[j])
            right = bracket_of_vectors(table, n, unit[i], apply(unit[j]))
            if lhs != [x + y for x, y in zip(left, right)]:
                return False
    return True


def naive_lcs(table, n):
    """Lower central series by naive span growing over raw brackets: one list
    of spanning vectors per term, ending at 0 or where the series stalls."""
    basis = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    terms = [basis]
    while True:
        span = NaiveSpan(n)
        for v in terms[-1]:
            for e in basis:
                w = bracket_of_vectors(table, n, v, e)
                if any(x != 0 for x in w):
                    span.add(w)
        terms.append(span.vectors)
        if span.dim == 0 or span.dim == len(terms[-2]):
            return terms  # a stall above zero means not nilpotent


def naive_lcs_dims(table, n):
    """Lower central series dims by naive span growing over raw brackets."""
    return [len(term) for term in naive_lcs(table, n)]


def naive_centralizer_dim(table, n, vectors):
    """Dimension of {x : [x, v] = 0 for every v}, as n minus the dense rank of
    the coordinates of [e_x, v] stacked over all v."""
    unit = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows = []
    for v in vectors:
        columns = [bracket_of_vectors(table, n, e, v) for e in unit]
        rows.extend([column[coord] for column in columns] for coord in range(n))
    return n - dense_rank(rows)


def naive_derived_dims(table, n):
    """Derived series dims; each term keeps every bracket that raises the
    dense rank of the vectors kept so far."""
    current = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    dims = [n]
    while True:
        kept = []
        for a, u in enumerate(current):
            for v in current[a + 1:]:
                w = bracket_of_vectors(table, n, u, v)
                if dense_rank(kept + [w]) > len(kept):
                    kept.append(w)
        dims.append(len(kept))
        if not kept or len(kept) == len(current):
            return dims
        current = kept


def dense_derivation_dim(table, n):
    """Dimension of the derivation algebra via a dense Leibniz system.

    Unknowns D[a][b] columnwise (D X_j = sum_a D[a][j] X_a) flattened as
    a * n + j.
    """
    def coeff(i, j, k):
        if i == j:
            return Fraction(0)
        if i < j:
            return Fraction(table.get((i, j), {}).get(k, 0))
        return -Fraction(table.get((j, i), {}).get(k, 0))

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for b in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    c = coeff(i, j, k)
                    if c:
                        row[b * n + k] += c
                for a in range(n):
                    c = coeff(a, j, b)
                    if c:
                        row[a * n + i] -= c
                    c = coeff(i, a, b)
                    if c:
                        row[a * n + j] -= c
                if any(x != 0 for x in row):
                    rows.append(row)
    if not rows:
        return n * n
    return n * n - dense_rank(rows)


def naive_jacobi(table, n):
    """Jacobi residuals by the plain loop over every triple i < j < k.

    ``table`` is {(i, j): {k: {monomial: coeff}}} with i < j, a monomial
    being a tuple of exponents.  Returns {(i, j, k): {b: {monomial: Fraction}}}
    for the cyclic sums [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj], keeping
    only nonzero coefficients, components and triples.
    """
    def signed(i, j):
        if i < j:
            return table.get((i, j), {}), 1
        return table.get((j, i), {}), -1

    residuals = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    inner, s1 = signed(x, y)
                    for m, p in inner.items():
                        outer, s2 = signed(m, z)
                        for b, q in outer.items():
                            slot = total.setdefault(b, {})
                            for m1, c1 in p.items():
                                for m2, c2 in q.items():
                                    mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                                    slot[mono] = (slot.get(mono, Fraction(0))
                                                  + s1 * s2 * Fraction(c1) * Fraction(c2))
                clean = {}
                for b, poly in total.items():
                    poly = {mono: c for mono, c in poly.items() if c}
                    if poly:
                        clean[b] = poly
                if clean:
                    residuals[(i, j, k)] = clean
    return residuals


def staged_cn_to_qn(n, alphas):
    """``(stages, composed, image)`` of the Cn(alphas) -> Qn elimination, each
    stage applied to the algebra the previous one left: stage j reads the
    coefficient c_j of Y_{n-1} in [Y_1, Y_{n-2j-2}] and substitutes
    Y_i -> Y_i + (c_j/2) Y_{i+2j} for i = 1..n-2-2j; a sign flip on the last
    basis vector ends the chain.  Matrices are tuples of rows."""
    current = catalog.generate(catalog.spec_for("Cn", n, alphas=tuple(Fraction(a) for a in alphas)))
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    stages, composed = [], unit
    for j in range(1, n // 2):
        P = [list(row) for row in unit]
        if j < n // 2 - 1:
            coeff = bracket_of(current, 1, n - 2 * j - 2).get(n - 1)
            value = coeff.constant_value() if coeff is not None else Fraction(0)
            for i in range(1, n - 1 - 2 * j):
                P[i][i + 2 * j] = value / 2
        else:
            P[n - 1][n - 1] = Fraction(-1)
        current = change_of_basis(current, P)
        product = []
        for row in P:
            terms = [(c, composed[k]) for k, c in enumerate(row) if c]
            product.append([sum((c * other[b] for c, other in terms), Fraction(0)) for b in range(n)])
        composed = product
        stages.append(tuple(tuple(row) for row in P))
    return tuple(stages), tuple(tuple(row) for row in composed), current
