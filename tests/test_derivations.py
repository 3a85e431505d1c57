import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qflab import catalog
from qflab.derivations import (
    derivation_dim,
    derivation_space,
    diagonal_derivations,
    rank_in_basis,
    verify_claimed_weights,
)
from qflab.exact import identity_matrix, mat_mul
from qflab.gradation import NonNilpotentError, lower_central_series, series_adapted
from qflab.liealg import Algebra, abelian, change_of_basis, jacobi_check
from oracles import NaiveSpan, dense_derivation_dim, leibniz_holds
from test_liealg import constants as rational_table, random_unimodular


def gen(token, n, **kw):
    return catalog.generate(catalog.spec_for(token, n, **kw))


def test_abelian_derivations():
    basis, dim = derivation_space(abelian(4))
    assert dim == 16
    _, diag_dim = diagonal_derivations(abelian(5))
    assert diag_dim == 5


def test_one_dimensional_degenerate():
    assert derivation_dim(abelian(1)) == 1
    assert rank_in_basis(abelian(1)) == 1


def test_der_l4_matches_dense_oracle():
    a = gen("Ln", 4)
    assert derivation_dim(a) == dense_derivation_dim(rational_table(a), 4)


def test_der_small_catalog_matches_oracle():
    # LarrC(6, l=2) is not isomorphic to its gr (dim Der 10 against 13), so the
    # moved basis catches Der solved on a truncated adapted table
    rng = random.Random(41)
    for token, kw in (("Qn", dict(n=6)), ("Tn3", dict(n=6)), ("Lnr", dict(n=5, r=3)),
                      ("LsumC", dict(n=5)), ("LarrC", dict(n=6, l=2))):
        a = catalog.generate(catalog.spec_for(token, **kw))
        expected = dense_derivation_dim(rational_table(a), a.dim)
        assert derivation_dim(a) == expected
        assert derivation_dim(change_of_basis(a, random_unimodular(a.dim, rng))) == expected


@st.composite
def anticommutative_tables(draw, max_dim=6):
    """A random table of dimension <= max_dim; about half are cut to brackets
    that land above both indices, which makes them nilpotent."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    targets = st.dictionaries(st.integers(min_value=0, max_value=n - 1), coefficient, max_size=2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = draw(st.dictionaries(st.sampled_from(pairs), targets, max_size=2 * n)) if pairs else {}
    if draw(st.booleans()):
        table = {(i, j): {k: c for k, c in t.items() if k > j} for (i, j), t in table.items()}
    return n, table


@given(anticommutative_tables(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_derivation_dim_matches_dense_oracle_on_random_tables(drawn, seed):
    # derivation_dim solves in the series-adapted basis, or in the given one
    # when the series stabilizes; the oracle solves in the given basis
    n, table = drawn
    expected = dense_derivation_dim(table, n)
    algebra = Algebra(n, table)
    assert derivation_dim(algebra) == expected
    moved = change_of_basis(algebra, random_unimodular(n, random.Random(seed)))
    assert derivation_dim(moved) == expected


def random_nilpotent_table(rng, n):
    """About n + 2 brackets, each with one or two targets above both indices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n - 1)]
    return {(i, j): {k: Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 2))
                     for k in rng.sample(range(j + 1, n), min(2, n - 1 - j))}
            for i, j in rng.sample(pairs, min(len(pairs), n + 2))}


def test_derivation_dim_matches_dense_oracle_on_deeper_non_lie_tables():
    # deeper than the hypothesis test's tables: derivation_dim solves only the
    # unknowns that keep the lower central series, which needs no Jacobi
    # identity; the oracle solves all n^2 in the given basis.  The dense
    # oracle takes 0.08-0.15 s a table at n = 8, 9, hence the weights
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        n = rng.choices(range(5, 10), weights=(14, 14, 8, 3, 1))[0]
        table = random_nilpotent_table(rng, n)
        algebra = Algebra(n, table)
        if jacobi_check(algebra).ok:
            continue
        expected = dense_derivation_dim(table, n)
        assert derivation_dim(algebra) == expected, table
        moved = change_of_basis(algebra, random_unimodular(n, random.Random(checked)))
        assert derivation_dim(moved) == expected, table
        checked += 1


def test_derivations_keep_the_lower_central_series():
    # the fact derivation_dim rests on: in the series-adapted basis no
    # derivation has an entry D[a][b] with levels[a] < levels[b]
    non_lie = Algebra(6, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 2},
                          (0, 3): {5: 1}, (1, 3): {5: -1}, (1, 4): {5: 3}})
    assert not jacobi_check(non_lie).ok
    lie = gen("LarrC", 6, l=2)
    for algebra in (lie, non_lie):
        moved = change_of_basis(algebra, random_unimodular(algebra.dim, random.Random(5)))
        adapted, levels = series_adapted(moved)
        assert len(set(levels)) > 2
        matrices, dim = derivation_space(adapted)
        assert dim == derivation_dim(algebra) == derivation_dim(moved)
        for d in matrices:
            assert all(d[a][b] == 0 for a in range(adapted.dim) for b in range(adapted.dim)
                       if levels[a] < levels[b])


def test_derivation_dim_of_non_nilpotent_algebra():
    a = Algebra(2, {(0, 1): {1: 1}})
    with pytest.raises(NonNilpotentError):
        lower_central_series(a)
    assert derivation_dim(a) == dense_derivation_dim({(0, 1): {1: 1}}, 2) == 2


def test_every_basis_element_satisfies_leibniz():
    a = gen("Qnr", 9, r=3)
    table = rational_table(a)
    basis, dim = derivation_space(a)
    assert dim == derivation_dim(a)
    for d in basis:
        assert leibniz_holds(table, 9, d)
    assert not leibniz_holds(table, 9, identity_matrix(9))  # D[x,y] = [x,y], not 2[x,y]


def test_derivation_space_closed_under_commutator():
    a = gen("Tn3", 6)
    table = rational_table(a)
    basis, _ = derivation_space(a)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            ab, ba = mat_mul(basis[i], basis[j]), mat_mul(basis[j], basis[i])
            commutator = [[x - y for x, y in zip(r, q)] for r, q in zip(ab, ba)]
            assert leibniz_holds(table, 6, commutator)


def test_diagonal_dim_at_most_der_dim():
    for token, kw in (("Lnr", dict(n=7, r=3)), ("E73", dict(n=7)), ("QarrCc", dict(n=7))):
        a = catalog.generate(catalog.spec_for(token, **kw))
        assert diagonal_derivations(a)[1] <= derivation_dim(a)


def test_ln_weight_space_is_expected_span():
    n = 7
    a = gen("Ln", n)
    basis, dim = diagonal_derivations(a)
    assert dim == 2
    # claimed span: (1, 0, 1, 2, ..., n-2) from l0 and (0, 1, 1, ..., 1) from l1
    w0 = [Fraction(1), Fraction(0)] + [Fraction(i - 1) for i in range(2, n)]
    w1 = [Fraction(0)] + [Fraction(1)] * (n - 1)
    space = NaiveSpan(n, basis)
    assert space.contains(w0) and space.contains(w1)
    claimed = NaiveSpan(n, [w0, w1])
    assert all(claimed.contains(v) for v in basis)


def test_e953_contains_printed_diagonal():
    a = gen("E953", 9)
    w = [Fraction(c) for c in (1, 1, 2, 3, 4, 5, 6, 7, 5)]
    assert all(w[i] + w[j] == w[k] for i, j, targets in a.brackets() for k in targets)
    basis, dim = diagonal_derivations(a)
    assert dim == 1
    assert NaiveSpan(9, basis).contains(w)


def test_rank_examples():
    assert rank_in_basis(gen("LsumC", 9)) == 3
    assert rank_in_basis(gen("E73", 7)) == 1
    # the Cn basis is not adapted: the diagonal family there is only
    # one-dimensional, the true rank 2 is witnessed through the Qn image
    from qflab.isomorphy import cn_to_qn_transform

    t = cn_to_qn_transform(8, [Fraction(1, 2), Fraction(3)])
    assert rank_in_basis(t.source) == 1
    assert rank_in_basis(t.image) == 2 == rank_in_basis(gen("Qn", 8))


def test_rank_invariant_under_monomial_basis_change():
    rng = random.Random(23)
    a = gen("Qnr", 9, r=5)
    base_rank = rank_in_basis(a)
    for _ in range(6):
        perm = list(range(9))
        rng.shuffle(perm)
        p = [[Fraction(0)] * 9 for _ in range(9)]
        for i, target in enumerate(perm):
            p[i][target] = Fraction(rng.choice([1, 2, 3, -1, 5]))
        moved = change_of_basis(a, p)
        assert rank_in_basis(moved) == base_rank


def test_weight_audit_passes_normalized():
    for token, kw in (("Lnr", dict(n=9, r=5)), ("Cnrk", dict(n=9, r=5, k=3)),
                      ("QarrCb", dict(n=9, l=3)), ("Gnrk", dict(n=9, r=5, k=2)),
                      ("Ln", dict(n=8)), ("Bnk", dict(n=8, k=3))):
        audit = verify_claimed_weights(catalog.spec_for(token, **kw))
        assert audit.ok, audit.lines()


def test_weight_audit_detects_bsumc_exponent():
    spec = catalog.spec_for("BsumC", 9, k=2)
    assert verify_claimed_weights(spec).ok
    bad = verify_claimed_weights(replace(spec, misprint=True))
    assert not bad.ok
    # every violated bracket is a superdiagonal one landing a step short
    assert all(str(delta) == "l0" for _, delta in bad.violations)


def test_weight_audit_detects_shift_variant():
    for token in ("LarrC", "AarrC"):
        spec = catalog.spec_for(token, 9, l=3, **({"k": 2} if token == "AarrC" else {}))
        assert verify_claimed_weights(spec).ok
        assert not verify_claimed_weights(replace(spec, misprint=True)).ok


def test_weight_audit_detects_diagonal_misprints():
    for token, kw in (("QarrCb", dict(n=9, l=3)), ("QarrCc", dict(n=9))):
        spec = catalog.spec_for(token, **kw)
        assert verify_claimed_weights(spec).ok
        assert not verify_claimed_weights(replace(spec, misprint=True)).ok


def test_weight_audit_lines_of_the_diagonal_misprints():
    # the printed diagonals' violations, in the order of brackets()
    lines = {
        ("QarrCb", 3): ["[X0,X1] -> X2: w0 + w1 - w2 = -l0*kp - 1/2*l0",
                        "[X0,X2] -> X3: w0 + w2 - w3 = l0*kp + 1/2*l0",
                        "[X2,X5] -> X7: w2 + w5 - w7 = l0*kp + 1/2*l0",
                        "[X2,X8] -> X5: w2 + w8 - w5 = l0*kp + 1/2*l0"],
        ("QarrCc", None): ["[X0,X5] -> X6: w0 + w5 - w6 = -5*l0*l1 + 5*l0 + l1",
                           "[X1,X6] -> X7: w1 + w6 - w7 = 5*l0*l1 - 5*l0 - l1"],
    }
    for (token, l), expected in lines.items():
        spec = replace(catalog.spec_for(token, 9, l=l), misprint=True)
        assert verify_claimed_weights(spec).lines() == expected


def test_weight_audit_rejects_unknown_misprint():
    with pytest.raises(catalog.InvalidParametersError):
        verify_claimed_weights(replace(catalog.spec_for("Lnr", 9, r=5), misprint=True))


def test_weights_unknown_for_cn():
    with pytest.raises(catalog.UnknownFamilyError):
        catalog.claimed_weights(catalog.spec_for("Cn", 8))


def test_weight_audit_matches_naive_sums():
    # the audit compares integer-scaled weights; the oracle subtracts the
    # Poly weights bracket by bracket over every valid tuple up to n = 11
    half_integer_diagonal = quadratic_delta = False
    for token in catalog.all_family_tokens():
        fam = catalog.family_def(token)
        flags = (False, True) if fam.misprinted_table or fam.misprinted_diagonal else (False,)
        for spec in catalog.family_def(token).tuples(11):
            for misprint in flags:
                printed = replace(spec, misprint=misprint)
                try:
                    audit = verify_claimed_weights(printed)
                except catalog.UnknownFamilyError:
                    continue  # no claimed diagonal for this family
                algebra = catalog.generate(printed)
                weights = catalog.claimed_weights(printed)
                naive = []
                for i, j, targets in algebra.brackets():
                    for k in targets:
                        delta = weights[i] + weights[j] - weights[k]
                        if not delta.is_zero():
                            naive.append(((i, j, k), delta))
                assert audit.violations == tuple(naive), (spec, misprint)
                if token == "QarrCb" and not misprint:
                    half_integer_diagonal |= any(c.denominator == 2 for w in weights for _, c in w.terms)
                if token == "QarrCc" and misprint:
                    quadratic_delta |= any(d.total_degree() == 2 for _, d in naive)
    assert half_integer_diagonal and quadratic_delta
