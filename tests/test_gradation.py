import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qflab import catalog
from qflab.cli import algebra_to_doc, dump_doc
from qflab.exact import QflabError, RowSpace, _integer_vector, identity_matrix
from qflab.gradation import NonNilpotentError, gr, lower_central_series, series_adapted, type_of
from qflab.liealg import Algebra, abelian, change_of_basis, jacobi_check
from qflab.derivations import derivation_dim, derivation_space, diagonal_derivations, rank_in_basis
from qflab.isomorphy import classify_gr, fingerprint
from oracles import NaiveSpan, naive_lcs, naive_lcs_dims
from test_derivations import anticommutative_tables, rational_table
from test_liealg import block_sum, random_unimodular


def gen(token, n, **kw):
    return catalog.generate(catalog.spec_for(token, n, **kw))


def test_l4_series_dims():
    # spans computed by hand: g2 = <X2, X3>, g3 = <X3>
    assert lower_central_series(gen("Ln", 4)).dims == (4, 2, 1, 0)


def test_abelian_series():
    assert lower_central_series(abelian(6)).dims == (6, 0)


def test_l53_series_and_type():
    a = gen("Lnr", 5, r=3)
    filtration = lower_central_series(a)
    assert filtration.dims == (5, 3, 2, 0)
    info = type_of(a)
    assert info.type_vector.p == (2, 1, 2)
    assert info.quasifiliform and info.r_index == 3


def test_series_matches_naive_oracle():
    for token, kw in (("Ln", dict(n=6)), ("Qn", dict(n=8)), ("Tn4", dict(n=7)),
                      ("E73", dict(n=7)), ("Lnr", dict(n=7, r=5))):
        a = catalog.generate(catalog.spec_for(token, **kw))
        table = {pair: {k: c.constant_value() for k, c in t.items()}
                 for pair, t in a.table().items()}
        assert list(lower_central_series(a).dims) == naive_lcs_dims(table, a.dim)


SL2 = Algebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})

# Small Lie algebras, nilpotent or not; their direct sums are Lie algebras.
LIE_BLOCKS = (SL2, abelian(1), Algebra(2, {(0, 1): {1: 1}}), Algebra(3, {(0, 1): {2: 1}}),
              Algebra(3, {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1}}),
              gen("Ln", 4), gen("Ln", 5), gen("Qn", 6), gen("Tn4", 7))


@st.composite
def series_inputs(draw):
    """An algebra of dim <= 7: a direct sum of two or three LIE_BLOCKS (those
    that fit), or a random table (rarely Lie), about half of them nilpotent."""
    if draw(st.booleans()):
        algebra = abelian(0)
        for block in draw(st.lists(st.sampled_from(LIE_BLOCKS), min_size=2, max_size=3)):
            if algebra.dim + block.dim <= 7:
                algebra = block_sum(algebra, block)
        return algebra
    n, table = draw(anticommutative_tables(max_dim=7))
    return Algebra(n, table)


@given(series_inputs(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_series_matches_naive_oracle_on_random_tables(algebra, seed):
    # the series is built from a complement of [g, g] when its check passes
    # and from every bracket [e_i, v] otherwise; the oracle always does the latter
    moved = change_of_basis(algebra, random_unimodular(algebra.dim, random.Random(seed)))
    for a in (algebra, moved):
        terms = naive_lcs(rational_table(a), a.dim)
        if terms[-1]:  # the oracle stalled above 0
            with pytest.raises(NonNilpotentError) as caught:
                lower_central_series(a)
            assert caught.value.stabilized_dim == len(terms[-1])
            continue
        ideals = [space.basis() for space in lower_central_series(a).spaces]
        assert len(ideals) == len(terms)
        for ideal, term in zip(ideals, terms):
            span = NaiveSpan(a.dim)
            for v in term:
                span.add(v)
            assert len(ideal) == span.dim and all(span.contains(v) for v in ideal)


def test_series_of_sl2_plus_line_stalls_at_sl2():
    # the line is a complement of [g, g] = sl2 and brackets to 0, so the
    # generator shortcut ends at 0; its check fails and the series stalls
    a = block_sum(SL2, abelian(1))
    for algebra in (a, change_of_basis(a, random_unimodular(4, random.Random(11)))):
        with pytest.raises(NonNilpotentError) as caught:
            lower_central_series(algebra)
        assert caught.value.stabilized_dim == 3


def test_series_of_a_non_lie_table_is_not_the_generator_shortcut():
    # [X2, X3] = X4 puts X4 into g_3, but X0 and X1, a complement of [g, g],
    # never reach it: the unchecked shortcut gives dims 5, 3, 1, 0
    a = Algebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (2, 3): {4: 1}})
    assert not jacobi_check(a).ok
    assert naive_lcs_dims(rational_table(a), 5) == [5, 3, 2, 1, 0]
    for algebra in (a, change_of_basis(a, random_unimodular(5, random.Random(13)))):
        assert lower_central_series(algebra).dims == (5, 3, 2, 1, 0)


def test_non_nilpotent_detected():
    # the 2-dimensional affine algebra [X0, X1] = X1 stabilizes at dim 1
    a = Algebra(2, {(0, 1): {1: 1}})
    with pytest.raises(NonNilpotentError):
        lower_central_series(a)


def test_type_ln_filiform():
    for n in (3, 5, 9, 14):
        info = type_of(gen("Ln", n))
        assert info.filiform
        assert info.type_vector.p == (2,) + (1,) * (n - 2)


def test_type_l4_plus_line():
    info = type_of(gen("LsumC", 5))
    assert info.quasifiliform
    assert info.type_vector.p == (3, 1, 1)
    assert info.r_index == 1


def test_type_l75():
    info = type_of(gen("Lnr", 7, r=5))
    assert info.quasifiliform and info.r_index == 5


def test_filtration_layers_are_ideals():
    a = gen("Qnr", 9, r=5)
    ideals = [space.basis() for space in lower_central_series(a).spaces]
    n = a.dim
    from qflab.liealg import rational_bracket

    unit = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for level in range(len(ideals) - 1):
        nxt = NaiveSpan(n, ideals[level + 1])
        for v in ideals[level]:
            for e in unit:
                w = rational_bracket(a, list(v), e)
                assert nxt.contains(w)


def test_gr_fixes_ln():
    a = gen("Ln", 8)
    graded = gr(a)
    assert graded.algebra == a
    assert graded.weights == (1,) + tuple(range(1, 8))


def test_gr_a52_is_l5():
    # A_5^2 has the single extra bracket [Y1,Y2] = a1*Y4; at any valid a1 the
    # graded algebra drops it and lands on L5 (expected values frozen from the
    # hand computation of the L5 invariants)
    a = gen("Ank", 5, k=2, alphas=[Fraction(7, 3)])
    graded = gr(a)
    assert fingerprint(graded.algebra) == fingerprint(gen("Ln", 5))


def test_gr_weight_additivity_invariant():
    for token, kw in (("Tn3", dict(n=8)), ("QarrCb", dict(n=9, l=3)), ("E952", dict(n=9))):
        graded = gr(catalog.generate(catalog.spec_for(token, **kw)))
        w = graded.weights
        for i, j, targets in graded.algebra.brackets():
            for k in targets:
                assert w[i] + w[j] == w[k]


def test_gr_idempotent_structurally():
    rng = random.Random(5)
    sample = [("Ln", dict(n=7)), ("Qnr", dict(n=9, r=3)), ("Tn4", dict(n=9)),
              ("E951", dict(n=9)), ("Dnrk", dict(n=8, r=3, k=1))]
    for token, kw in sample:
        a = catalog.generate(catalog.spec_for(token, **kw))
        once = gr(a)
        twice = gr(once.algebra)
        assert once.algebra == twice.algebra
        assert once.weights == twice.weights


def test_gr_type_preserved_under_basis_change():
    from test_liealg import random_unimodular

    rng = random.Random(17)
    a = gen("Qnr", 9, r=5)
    for _ in range(5):
        moved = change_of_basis(a, random_unimodular(9, rng))
        assert type_of(moved).type_vector == type_of(a).type_vector
        assert type_of(gr(moved).algebra).type_vector == type_of(a).type_vector


def test_gr_rejects_a_bracket_that_leaves_the_filtration():
    # nilpotent, but not a Lie algebra: [X2, X3] = X4 lies in g_4, not in
    # [g_2, g_3], which is inside g_5 = 0 for a Lie algebra
    from test_liealg import random_unimodular

    a = Algebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (2, 3): {4: 1}})
    assert lower_central_series(a).dims == (5, 3, 2, 1, 0)
    assert not jacobi_check(a).ok
    for algebra in (a, change_of_basis(a, random_unimodular(5, random.Random(3)))):
        with pytest.raises(QflabError, match="bracket left the filtration"):
            gr(algebra)


def test_series_adapted_basis_spans_the_series():
    from test_liealg import random_unimodular

    assert series_adapted(gen("Ln", 8))[0] == gen("Ln", 8)  # level-ordered already
    a = gen("Qnr", 9, r=3)
    moved = change_of_basis(a, random_unimodular(9, random.Random(29)))
    adapted, levels = series_adapted(moved)
    assert list(levels) == sorted(levels)
    assert lower_central_series(adapted).dims == lower_central_series(moved).dims
    # g_k of the adapted table is spanned by the basis vectors of level >= k
    for k, space in enumerate(lower_central_series(adapted).spaces[:-1], start=1):
        ideal = space.basis()
        span = NaiveSpan(9, [[int(i == t) for i in range(9)] for t in range(9) if levels[t] >= k])
        assert span.dim == len(ideal) and all(span.contains(v) for v in ideal)


def test_permuted_basis_is_relabelled_like_change_of_basis():
    # in a permuted basis the adapted basis is made of unit vectors, and
    # series_adapted relabels the table instead of calling change_of_basis;
    # the relabelled table must be the one change_of_basis gives
    rng = random.Random(15)
    moved_bases = 0
    for spec in (spec for n in range(4, 11) for spec in catalog.prop4_entries(n)):
        n = spec.n
        order = list(range(n))
        rng.shuffle(order)
        moved = change_of_basis(catalog.generate(spec),
                                [[Fraction(int(j == order[i])) for j in range(n)] for i in range(n)])
        ideals = [space.basis() for space in lower_central_series(moved).spaces]
        flag, chosen = RowSpace(n), []
        for level in range(len(ideals) - 1, 0, -1):  # deepest term first
            chosen += [(level, vec) for vec in ideals[level - 1]
                       if flag.add(_integer_vector(vec)[1])]
        chosen.sort(key=lambda entry: entry[0])
        basis = [vec for _, vec in chosen]
        assert all(sorted(vec) == [0] * (n - 1) + [1] for vec in basis), spec
        moved_bases += [list(vec) for vec in basis] != identity_matrix(n)
        adapted, levels = series_adapted(moved)
        assert adapted == change_of_basis(moved, basis), spec
        assert list(levels) == [level for level, _ in chosen]
    assert moved_bases > 30


def test_parametric_requires_assignment():
    a = gen("Ank", 7, k=2)
    assert a.params
    for entry_point in (derivation_space, derivation_dim, diagonal_derivations, rank_in_basis,
                        lower_central_series, type_of, series_adapted, gr, fingerprint,
                        classify_gr, lambda b: change_of_basis(b, identity_matrix(7))):
        with pytest.raises(QflabError):
            entry_point(a)
    assert lower_central_series(a.specialize({"a1": Fraction(1), "a2": Fraction(0)})).dims[0] == 7


def test_deformation_families_match_class_type():
    # every deformation family has the type vector of the naturally graded
    # class it files under
    for token, kw in (("Cnrk", dict(n=9, r=5, k=3, alphas=[1, 1])),
                      ("Enrk", dict(n=9, r=3, k=3, alphas=[1])),
                      ("Hnrk", dict(n=10, r=7, k=4, alphas=[1])),
                      ("BarrCa", dict(n=9, l=3, k=3, alphas=[1])),
                      ("AarrC", dict(n=8, l=4, k=2, alphas=[1, 1]))):
        spec = catalog.spec_for(token, **kw)
        if not catalog.extract_constraints(spec).is_satisfied_by(spec.alphas):
            spec = spec.with_alphas(catalog.sample_alphas(spec))
        got = type_of(catalog.generate(spec))
        want = type_of(catalog.generate(catalog.natural_gr_class(spec)))
        assert got.type_vector == want.type_vector
        assert got.r_index == want.r_index


def test_type_vector_invariants():
    # sums to n, p1 >= 2 for non-abelian nilpotent input of dim >= 3
    for token, kw in (("Ln", dict(n=11)), ("Qnr", dict(n=11, r=7)),
                      ("Tn4", dict(n=11)), ("E952", dict(n=9)),
                      ("Dnrk", dict(n=10, r=3, k=2))):
        a = catalog.generate(catalog.spec_for(token, **kw))
        p = type_of(a).type_vector.p
        assert sum(p) == a.dim
        assert p[0] >= 2


# sha256 over the series of every naturally graded catalog entry with
# 4 <= n <= 11 and of one seeded moved basis of each: the echelon bases of
# the ideals, the adapted table with its levels and the gr document.  The
# tests above check spans; this pins which basis ``series_adapted`` picks.
SERIES_SHA256 = "156b9abd00c1d8a688dfdd6f216d05939340495c8f8721673a6b5babd296c5d6"


def _series_record(algebra):
    ideals = [[[str(x) for x in row] for row in space.basis()]
              for space in lower_central_series(algebra).spaces]
    adapted, levels = series_adapted(algebra)
    graded = gr(algebra)
    doc = algebra_to_doc(graded.algebra)
    doc["metadata"] = {"weights": list(graded.weights)}
    return f"{ideals}\n{dump_doc(algebra_to_doc(adapted))}{list(levels)}\n{dump_doc(doc)}"


def test_series_golden():
    rng = random.Random(14)
    text = ""
    for spec in (spec for n in range(4, 12) for spec in catalog.prop4_entries(n)):
        algebra = catalog.generate(spec)
        moved = change_of_basis(algebra, random_unimodular(spec.n, rng))
        text += f"{spec}\n{_series_record(algebra)}{_series_record(moved)}"
    assert hashlib.sha256(text.encode()).hexdigest() == SERIES_SHA256
    assert lower_central_series(abelian(0)).dims == (0,)
    assert lower_central_series(abelian(0)).nilindex == 0
    assert lower_central_series(abelian(1)).dims == (1, 0)
