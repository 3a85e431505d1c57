import gc
import hashlib
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from qflab import catalog
from qflab.catalog import FamilySpec, InvalidParametersError, UnknownFamilyError, aij_table, spec_for
from qflab.exact import Poly
from qflab.liealg import jacobi_check


def gen(token, n, **kw):
    return catalog.generate(spec_for(token, n, **kw))


def table_of(algebra):
    return {pair: {k: str(c) for k, c in t.items()} for pair, t in algebra.table().items()}


def test_q6_exact_table():
    assert table_of(gen("Qn", 6)) == {
        (0, 1): {2: "1"}, (0, 2): {3: "1"}, (0, 3): {4: "1"},
        (1, 4): {5: "1"}, (2, 3): {5: "-1"},
    }


def test_e73_exact_table():
    assert table_of(gen("E73", 7)) == {
        (0, 1): {2: "1"}, (0, 2): {3: "1"}, (0, 3): {4: "1"}, (0, 4): {5: "1"},
        (0, 6): {4: "1"}, (1, 2): {6: "1"}, (1, 3): {4: "1"}, (1, 4): {5: "1"},
        (2, 6): {5: "-1"},
    }


def test_tn4_small_table():
    assert table_of(gen("Tn4", 7)) == {
        (0, 1): {2: "1"}, (0, 2): {3: "1"},
        (0, 4): {5: "1"}, (0, 6): {4: "1"},
        (1, 2): {6: "1"}, (1, 3): {4: "1"}, (2, 3): {5: "1"},
    }


def test_invalid_ranges_rejected():
    with pytest.raises(InvalidParametersError):
        gen("Lnr", 9, r=4)  # r must be odd
    with pytest.raises(InvalidParametersError):
        gen("Qn", 7)  # n must be even
    with pytest.raises(InvalidParametersError):
        gen("Ank", 9, k=8)  # k <= n-3
    with pytest.raises(InvalidParametersError):
        gen("Gnrk", 9, r=4, k=2)  # r pinned to n-4
    with pytest.raises(InvalidParametersError):
        gen("Lnr", 9)  # r required
    with pytest.raises(UnknownFamilyError):
        catalog.family_def("Znrk")


def test_alpha_count_validation():
    with pytest.raises(InvalidParametersError):
        gen("Ank", 9, k=2, alphas=[1, 2])  # expects 3 values
    assert gen("Ank", 9, k=2, alphas=[1, 2, 3]).params == ()


def test_aij_seed_values():
    t = aij_table(7)
    a1 = Poly.variable(t.params, "a1")
    a2 = Poly.variable(t.params, "a2")
    a3 = Poly.variable(t.params, "a3")
    for i in range(1, 4):
        assert t.get(i, i) == Poly.zero(t.params)
        assert t.get(i, i + 1) == Poly.variable(t.params, f"a{i}")
    # unrolled by hand through a_{i,j+1} = a_{i,j} - a_{i+1,j}:
    assert t.get(1, 3) == a1
    assert t.get(1, 4) == a1 - a2
    assert t.get(2, 4) == a2
    assert t.get(1, 5) == a1 - 2 * a2 + 0 * a3
    assert t.get(2, 5) == a2 - a3
    assert t.get(1, 6) == (a1 - 2 * a2) - (a2 - a3)  # = a1 - 3 a2 + a3
    # zero outside the declared range
    assert t.get(3, 5) == Poly.zero(t.params)


def test_aij_recurrence_on_imposed_shells():
    t = aij_table(9)
    for (i, j) in list(t.values):
        if i + j <= t.range_bound - 1:
            assert t.get(i, j) == t.get(i + 1, j) + t.get(i, j + 1)


def test_aij_table_is_built_once_per_bound_and_read_only():
    t = aij_table(9)
    assert aij_table(9) is t
    with pytest.raises(TypeError):
        t.values[(1, 2)] = Poly.zero(t.params)
    assert t.get(1, 2) == Poly.variable(t.params, "a1")


def test_aij_antisymmetric_accessor():
    t = aij_table(6)
    assert t.get(3, 1) == -t.get(1, 3)


def test_parametric_alpha_line_consistency():
    # the superdiagonal of the a-table must reproduce the alpha brackets
    # [Y_i, Y_{i+1}] = a_i Y_{2i+k}
    a = gen("Ank", 9, k=3)
    assert a.bracket_of(1, 2) == {5: Poly.variable(("a1", "a2"), "a1")}
    assert a.bracket_of(2, 3) == {7: Poly.variable(("a1", "a2"), "a2")}


def test_lnr_constraints_empty():
    for n, r in ((7, 3), (9, 5), (12, 3)):
        cs = catalog.extract_constraints(spec_for("Lnr", n, r=r))
        assert cs.generators == ()


def test_constraints_quadratic_bound():
    for token, kw in (("Ank", dict(n=11, k=2)), ("Cnrk", dict(n=10, r=3, k=2)),
                      ("Hnrk", dict(n=10, k=2, r=7))):
        cs = catalog.extract_constraints(spec_for(token, **kw))
        assert all(g.total_degree() <= 2 for g in cs.generators)


def test_a92_constraint_and_solution():
    # single generator computed by hand:
    #   -2 a1 a3 + 3 a2^2 - a2 a3   (from J(Y1,Y2,Y3))
    cs = catalog.extract_constraints(spec_for("Ank", 9, k=2))
    assert len(cs.generators) == 1
    assert str(cs.generators[0]) == "2*a1*a3 - 3*a2^2 + a2*a3"
    assert cs.is_satisfied_by([1, 1, 1])
    assert not cs.is_satisfied_by([1, 1, 2])
    # substituting a solution point makes every Jacobi residual vanish
    a = gen("Ank", 9, k=2, alphas=[1, 1, 1])
    assert jacobi_check(a).ok


def _parametric_sound_tuples(n_max):
    for token in catalog.all_family_tokens():
        if token not in catalog.NONPARAMETRIC_TOKENS:
            for spec in catalog.sound_tuples(token, n_max):
                if catalog.alpha_count(spec):
                    yield spec


def test_constraint_order_and_integer_checks_on_sound_tuples():
    # the order printed only the ties; the integer check against Poly.evaluate
    checked = 0
    for spec in _parametric_sound_tuples(11):
        cs = catalog.extract_constraints(spec)
        assert list(cs.generators) == sorted(
            cs.generators, key=lambda g: (g.total_degree(), len(g.terms), str(g))), spec
        count = len(cs.params)
        points = [candidate(count) for candidate in catalog._SAMPLE_POOL]
        points.append([Fraction(2 * i - 3, i + 2) for i in range(count)])
        for values in points:
            assignment = dict(zip(cs.params, values))
            assert cs.is_satisfied_by(values) == all(
                g.evaluate(assignment) == 0 for g in cs.generators), (spec, values)
        checked += 1
    assert checked > 200


def _constraint_set(token, **kw):
    return catalog.extract_constraints(spec_for(token, **kw))


def test_equal_constraint_sets_and_generators_are_one_object():
    bnk, bsumc, barrca = (_constraint_set("Bnk", n=8, k=2), _constraint_set("BsumC", n=9, k=2),
                          _constraint_set("BarrCa", n=9, k=2, l=3))
    assert [str(g) for g in bnk.generators] == ["2*a1 + a2"]
    assert bnk is bsumc is barrca
    a8, a9 = (_constraint_set("AarrC", n=n, k=2, l=2) for n in (8, 9))
    assert [str(g) for g in a8.generators] == ["a2"]
    assert a8 is a9 and a8.generators[0] is a9.generators[0]
    # equal generators over different parameter universes are different sets
    a11 = _constraint_set("AarrC", n=11, k=3, l=3)
    assert [str(g) for g in a11.generators] == ["a2"] and a11.params == ("a1", "a2", "a3")
    assert a11 != a8 and a11.generators[0] != a8.generators[0]
    empty5, empty7 = _constraint_set("Ank", n=5, k=2), _constraint_set("Ank", n=7, k=2)
    assert empty5.generators == empty7.generators == ()
    assert empty5.params == ("a1",) and empty7.params == ("a1", "a2") and empty5 is not empty7
    assert catalog.sample_alphas(spec_for("Ank", 5, k=2)) == (1,)
    assert catalog.sample_alphas(spec_for("Ank", 7, k=2)) == (1, 1)


def test_sets_without_parameters_sample_the_empty_point_or_none():
    assert catalog.extract_constraints(spec_for("Ln", 5)).sample == ()
    fnrk = spec_for("Fnrk", n=9, r=3, k=1)
    unsound = catalog.extract_constraints(fnrk)
    assert unsound.params == () and [str(g) for g in unsound.generators] == ["1"]
    assert unsound.sample is None and catalog.sample_alphas(fnrk) is None
    # an alpha-free tuple gets () exactly when it is a Lie algebra
    for token in catalog.all_family_tokens():
        fam = catalog.family_def(token)
        for spec in fam.tuples(13):
            if not catalog.alpha_count(spec):
                assert (catalog.sample_alphas(spec) == ()) == fam.sound(spec), spec


def _drop_constraint_memos():
    catalog._constraints_of.cache_clear()
    gc.collect()


def test_intern_tables_hold_nothing_alive():
    sets = [catalog.extract_constraints(spec) for spec in _parametric_sound_tuples(9)]
    assert catalog._SETS and catalog._GENERATORS
    del sets
    _drop_constraint_memos()
    assert not catalog._SETS and not catalog._GENERATORS


def test_alpha_search_runs_once_per_distinct_set(monkeypatch):
    _drop_constraint_memos()
    assert not catalog._SETS  # no set carries a search result yet
    searched = []
    search = catalog._search_alphas
    monkeypatch.setattr(catalog, "_search_alphas", lambda cs: searched.append(cs) or search(cs))
    specs = list(_parametric_sound_tuples(11))
    for spec in specs:
        catalog.sample_alphas(spec)
    distinct = {id(catalog.extract_constraints(spec)) for spec in specs}
    assert len(searched) == len({id(cs) for cs in searched}) == len(distinct) < len(specs) / 3


def test_shared_constraints_and_alphas_equal_fresh_ones():
    def answer(spec):
        cs = catalog.extract_constraints(spec)
        return cs.params, [str(g) for g in cs.generators], catalog.sample_alphas(spec)

    specs = [spec for token in catalog.all_family_tokens()
             for spec in catalog.sound_tuples(token, 11)]
    shared = [answer(spec) for spec in specs]
    # backwards, from empty memos on every tuple
    for spec, expected in zip(reversed(specs), reversed(shared)):
        catalog._constraints_of.cache_clear()
        catalog._symbolic.cache_clear()
        assert not catalog._SETS, spec
        assert answer(spec) == expected, spec
    assert len(specs) > 400


def test_each_filiform_part_is_built_once_for_every_n(monkeypatch):
    # the sound tuples of the parametric families with n <= 17, in every
    # family, share 97 parts (e, k, short), each of dimension e + 1
    specs = [spec for token in catalog.all_family_tokens() if token not in catalog.NONPARAMETRIC_TOKENS
             for spec in catalog.sound_tuples(token, 17)]
    build = catalog._filiform_part
    parts = {}

    def recorded(e, k, short):
        part = build(e, k, short)
        assert part.dim == e + 1 and parts.setdefault((e, k, short), part) is part
        return part

    monkeypatch.setattr(catalog, "_filiform_part", recorded)
    catalog._constraints_of.cache_clear()
    catalog._symbolic.cache_clear()
    build.cache_clear()
    for spec in specs:
        catalog.extract_constraints(spec)
    assert build.cache_info().misses == len(parts) == 97
    assert len(specs) == 1784


def test_constraint_check_on_rational_coefficients():
    # a1/2 - a2/3 and a1^2 - 3/4*a2 vanish together at (0, 0) and (9/8, 27/16)
    params = ("a1", "a2")
    a1, a2 = (Poly.variable(params, name) for name in params)
    cs = catalog.ConstraintSet(params, (a1 * Fraction(1, 2) - a2 * Fraction(1, 3),
                                        a1 * a1 - a2 * Fraction(3, 4)))
    for values, expected in (([0, 0], True), (["9/8", "27/16"], True), ([1, "3/2"], False),
                             ([1, 1], False), ([Fraction(-9, 8), Fraction(-27, 16)], False)):
        assignment = {name: Fraction(v) for name, v in zip(params, values)}
        assert all(g.evaluate(assignment) == 0 for g in cs.generators) == expected
        assert cs.is_satisfied_by(values) == expected, values


def test_constraint_check_rejects_wrong_alpha_count():
    cs = catalog.extract_constraints(spec_for("Ank", 9, k=2))
    for alphas in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(InvalidParametersError):
            cs.is_satisfied_by(alphas)


def test_line_roots_refuse_degree_above_two():
    a1, a2 = (Poly.variable(("a1", "a2"), name) for name in ("a1", "a2"))
    # x^3 - x has the roots 0, 1 and -1; its quadratic truncation -x only 0
    assert catalog._line_roots((a1 * a1 * a1 - a1,), 0, Fraction(0)) == []
    assert catalog._line_roots((a1 * a1 - 1,), 0, Fraction(0)) == [-1, 1]
    assert catalog._line_roots((a1 * 2 - 1,), 0, Fraction(0)) == [Fraction(1, 2)]
    # a constant has no root, and a line on which every generator vanishes none
    assert catalog._line_roots((a1 - a1 + 1,), 0, Fraction(0)) == []
    assert catalog._line_roots((a2,), 0, Fraction(0)) == catalog._line_roots((), 0, Fraction(1)) == []
    # the first generator that does not vanish on the line answers
    assert catalog._line_roots((a2, a1 * a2 + a1 * a1 - 4), 0, Fraction(0)) == [-2, 2]
    assert catalog._line_roots((a2, a1 * a2 + a1 * a1 - 4), 0, Fraction(1)) == []
    assert catalog._line_roots((a2 - 1, a1 * a2 + a1 * a1 - 2), 0, Fraction(1)) == [-2, 1]


def test_alpha_zero_valid_on_sound_at_zero_domain():
    # the all-zero assignment is a Lie point wherever no generator carries a
    # constant term; that covers the direct sums and deformations without a
    # long tail of extension brackets
    for token, kw in (("Ank", dict(n=12, k=2)), ("Bnk", dict(n=10, k=3)),
                      ("AsumC", dict(n=9, k=2)), ("BsumC", dict(n=9, k=2)),
                      ("Cnrk", dict(n=9, r=3, k=3)), ("Enrk", dict(n=9, r=3, k=2)),
                      ("Hnrk", dict(n=10, k=3, r=7)), ("Gnrk", dict(n=9, r=5, k=3))):
        spec = spec_for(token, **kw)
        zero = [Fraction(0)] * catalog.alpha_count(spec)
        assert catalog.extract_constraints(spec).is_satisfied_by(zero), (token, kw)
        assert jacobi_check(catalog.generate(spec.with_alphas(zero))).ok


def test_alpha_zero_exceptions_are_real_and_solvable():
    # documented exception: a long extension tail (Cnrk/Enrk) or the k = 2
    # conditional bracket (Gnrk) forces relations with a constant term, so
    # alpha = 0 is not a Lie point although nonzero solutions exist
    for token, kw in (("Cnrk", dict(n=10, r=3, k=2)), ("Gnrk", dict(n=9, r=5, k=2))):
        spec = spec_for(token, **kw)
        cs = catalog.extract_constraints(spec)
        assert not cs.is_satisfied_by([0] * len(cs.params))
        alphas = catalog.sample_alphas(spec)
        assert alphas is not None and any(alphas)
        assert jacobi_check(catalog.generate(spec.with_alphas(alphas))).ok


def test_g_misprint_variant_breaks_jacobi_by_constant():
    # the known-bad deep coefficient line (n-2-i)/2 leaves a constant
    # Jacobi residual, detected symbolically
    spec = spec_for("Gnrk", 9, r=5, k=3)
    good = catalog.extract_constraints(spec)
    assert good.is_satisfied_by([0] * len(good.params))
    bad = catalog.extract_constraints(replace(spec, misprint=True))
    assert any(g.is_constant() for g in bad.generators)


def test_dnrk_soundness_boundary():
    # inside the printed k range only the maximal k closes as a Lie algebra
    sound = catalog.family_def("Dnrk").sound
    assert sound(spec_for("Dnrk", 9, r=3, k=2))
    assert not sound(spec_for("Dnrk", 9, r=3, k=1))
    assert not sound(spec_for("Dnrk", 9, r=5, k=1))
    assert jacobi_check(gen("Dnrk", 9, r=3, k=2)).ok
    assert not jacobi_check(gen("Dnrk", 9, r=3, k=1)).ok


def test_fnrk_unrealizable():
    # every printed tuple violates the Jacobi identity; the support admits no
    # Lie algebra with a nonzero extension at all (see the family notes)
    specs = list(catalog.family_def("Fnrk").tuples(13))
    assert specs  # the printed range is nonempty ...
    assert list(catalog.sound_tuples("Fnrk", 13)) == []  # ... but nothing is sound
    for spec in specs:
        assert not jacobi_check(catalog.generate(spec)).ok


def test_fnrk_obstruction_certificate():
    # generic coefficients on the F support at (n,r,k) = (9,3,1): Jacobi
    # forces e1 = e2, d alternating, and then d*e = 0, so either the deep
    # pairs or the extension must vanish
    params = ("c1", "d1", "d2", "d3", "e1", "e2")
    v = lambda s: Poly.variable(params, s)
    from qflab.liealg import Algebra

    table = {
        (0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (0, 4): {5: 1}, (0, 5): {6: 1},
        (1, 2): {8: v("c1")},
        (1, 6): {7: v("d1")}, (2, 5): {7: v("d2")}, (3, 4): {7: v("d3")},
        (1, 8): {5: v("e1")}, (2, 8): {6: v("e2")},
    }
    report = jacobi_check(Algebra(9, table, params=params))
    gens = {str(p) for comp in report.residuals.values() for p in comp.values()}
    assert gens == {"-d1*e2 + d2*e1", "-e1 + e2", "d1 + d2", "d2 + d3"}


def test_qarr_parity_soundness():
    assert catalog.family_def("QarrCa").sound(spec_for("QarrCa", 9, l=3))
    assert not catalog.family_def("QarrCa").sound(spec_for("QarrCa", 9, l=2))
    assert not jacobi_check(gen("QarrCa", 9, l=2)).ok
    assert jacobi_check(gen("QarrCa", 9, l=5)).ok
    assert not jacobi_check(gen("QarrCb", 9, l=4)).ok


def test_canonical_strings():
    assert spec_for("Lnr", 9, r=5).canonical() == "Lnr(n=9,r=5)"
    s = spec_for("Ank", 8, k=3, alphas=[1, 0])
    assert s.canonical() == "Ank(n=8,k=3,alpha=[1,0])"
    assert spec_for("Gnrk", 9, r=5, k=2).canonical() == "Gnrk(n=9,r=5,k=2)"


def test_prop4_entries_inventory():
    at9 = {s.canonical() for s in catalog.prop4_entries(9)}
    assert at9 == {
        "LsumC(n=9)", "QsumC(n=9)", "Lnr(n=9,r=3)", "Lnr(n=9,r=5)", "Lnr(n=9,r=7)",
        "Qnr(n=9,r=3)", "Qnr(n=9,r=5)", "Tn4(n=9)",
        "E951(n=9)", "E952(n=9)", "E953(n=9)",
    }
    at7 = {s.canonical() for s in catalog.prop4_entries(7)}
    assert "E73(n=7)" in at7 and "Tn4(n=7)" in at7
    assert all(s.family != "Tn3" for s in catalog.prop4_entries(7))


def test_every_gr_class_is_a_graded_model():
    models = {n: set(catalog.graded_models(n)) for n in range(1, 18)}
    for token in catalog.all_family_tokens():
        for spec in catalog.family_def(token).tuples(17):
            assert catalog.natural_gr_class(spec) in models[spec.n], spec.canonical()


def test_cn_is_lie_for_random_alphas():
    import random

    rng = random.Random(9)
    for n in (6, 8, 10):
        alphas = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n // 2 - 2)]
        assert jacobi_check(gen("Cn", n, alphas=alphas)).ok


def test_generate_declared_class():
    for token, kw, filiform in (("Ln", dict(n=9), True), ("Ank", dict(n=9, k=4), True),
                                ("Qn", dict(n=10), True), ("Bnk", dict(n=10, k=5), True)):
        spec = spec_for(token, **kw)
        alphas = catalog.sample_alphas(spec)
        concrete = spec.with_alphas(alphas) if alphas else spec
        from qflab.gradation import type_of

        info = type_of(catalog.generate(concrete))
        assert info.filiform == filiform
    for token, kw, r in (("Lnr", dict(n=9, r=5), 5), ("Qnr", dict(n=9, r=3), 3),
                         ("Tn4", dict(n=9), 5), ("Tn3", dict(n=8), 5),
                         ("LsumC", dict(n=8), 1), ("QsumC", dict(n=9), 1)):
        from qflab.gradation import type_of

        info = type_of(catalog.generate(spec_for(token, **kw)))
        assert info.quasifiliform and info.r_index == r


def test_misprint_flag_rejected_without_variant():
    # Lnr has no documented misprint, so validate_spec rejects its misprint tuple
    spec = replace(spec_for("Lnr", 9, r=5), misprint=True)
    with pytest.raises(InvalidParametersError) as info:
        catalog.validate_spec(spec)
    assert str(info.value) == "Lnr has no documented misprint"
    with pytest.raises(InvalidParametersError):
        catalog.generate(spec)


def test_diagonal_misprint_tuple_has_corrected_table():
    # QarrCb and QarrCc circulate with misprinted diagonals, not tables
    for spec in (spec_for("QarrCb", 9, l=3), spec_for("QarrCc", 9)):
        assert catalog.generate(replace(spec, misprint=True)) == catalog.generate(spec)


def test_misprint_tuple_canonical_is_marked():
    spec = spec_for("LarrC", 9, l=3)
    printed = replace(spec, misprint=True)
    assert printed.canonical() == "LarrC(n=9,l=3,misprint)" != spec.canonical()
    assert printed.with_alphas([]).misprint


def test_residuals_evaluate_to_zero_at_solution_point():
    # evaluating every symbolic Jacobi residual of A_9^2 at a solution of the
    # extracted constraint set gives exactly zero
    report = jacobi_check(gen("Ank", 9, k=2))
    assignment = {"a1": Fraction(1), "a2": Fraction(1), "a3": Fraction(1)}
    residuals = [p for comp in report.residuals.values() for p in comp.values()]
    assert residuals  # symbolically nonzero ...
    assert all(p.evaluate(assignment) == 0 for p in residuals)  # ... zero at the point


def test_line_roots_take_exact_square_roots_beyond_float_range():
    x = Poly.variable(("a1",), "a1")
    root = 10**40 + 7
    assert catalog._line_roots((x * x - root * root,), 0, Fraction(0)) == [-root, root]
    assert catalog._line_roots((x * x - (root * root + 1),), 0, Fraction(0)) == []
    assert catalog._line_roots((x * x * Fraction(1, 10**400) - 1,), 0, Fraction(1)) == [-10**200, 10**200]
    # (2x - 10^40/3)^2 has one double root
    assert catalog._line_roots(((x * 2 - Fraction(10**40, 3)) * (x * 2 - Fraction(10**40, 3)),),
                               0, Fraction(0)) == [Fraction(10**40, 6)]


def test_token_partition_consistency():
    parametric = {"Ank", "Bnk", "Cn", "AsumC", "BsumC", "AarrC", "BarrCa",
                  "BarrCc", "Cnrk", "Enrk", "Gnrk", "Hnrk"}
    for token in catalog.all_family_tokens():
        spec = next(iter(catalog.family_def(token).tuples(13)))
        count = catalog.alpha_count(spec)
        assert (count > 0) == (token in parametric), token
        assert (token in catalog.NONPARAMETRIC_TOKENS) == (token not in parametric)


def test_discrepancy_registry_matches_the_family_fields():
    # a misprint field goes with a misprint entry, a narrowed sound range with
    # a range or unrealizable entry, and the other way round
    always_sound = catalog.family_def("Ln").sound
    fields = {
        ("misprint",): lambda fam: fam.misprinted_table or fam.misprinted_diagonal is not None,
        ("range", "unrealizable"): lambda fam: fam.sound is not always_sound,
    }
    for kinds, has_field in fields.items():
        flagged = {token for token, fam in catalog.FAMILIES.items() if has_field(fam)}
        entered = {token for entry in catalog.DISCREPANCIES if entry.kind in kinds
                   for token in entry.families}
        assert flagged == entered, kinds
    for entry in catalog.DISCREPANCIES:
        assert entry.tuples and {spec.family for spec in entry.tuples} == set(entry.families)
        assert (entry.rank is not None) == (entry.kind == "rank")


def test_every_discrepancy_is_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Known discrepancies", 1)[1].split("\n## ", 1)[0]
    for entry in catalog.DISCREPANCIES:
        for token in entry.families:
            assert f"`{token}`" in section, token


# Golden values of the registry: one claimed diagonal per family, the two
# misprinted diagonals, the tuple counts and one message of each kind.

CLAIMED_DIAGONALS = (
    (("Ln", 9, {}), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 6*l0 + l1, 7*l0 + l1"),
    (("Qn", 8, {}), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 5*l0 + 2*l1"),
    (("Ank", 9, dict(k=4)), "l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 9*l0, 10*l0, 11*l0"),
    (("Bnk", 10, dict(k=2)), "l0, 2*l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 9*l0, 11*l0"),
    (("LsumC", 9, {}), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 6*l0 + l1, lx"),
    (("QsumC", 9, {}), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 5*l0 + 2*l1, lx"),
    (("AsumC", 9, dict(k=4)), "l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 9*l0, 10*l0, lx"),
    (("BsumC", 9, dict(k=3)), "l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 11*l0, lx"),
    (("LarrC", 9, dict(l=4)), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 6*l0 + l1, 4*l0"),
    (("AarrC", 9, dict(k=4, l=2)), "l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 9*l0, 10*l0, 2*l0"),
    (("QarrCa", 9, dict(l=5)), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 5*l0 + 2*l1, 5*l0"),
    (("BarrCa", 9, dict(k=3, l=5)), "l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 11*l0, 5*l0"),
    (("QarrCb", 9, dict(l=5)), "l0, 1/2*l0, 3/2*l0, 5/2*l0, 7/2*l0, 9/2*l0, 11/2*l0, 6*l0, 5*l0"),
    (("QarrCc", 9, {}), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 5*l0 + 2*l1, 4*l0 + 2*l1"),
    (("BarrCc", 9, dict(k=3)), "l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 11*l0, 10*l0"),
    (("Lnr", 9, dict(r=5)), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 6*l0 + l1, 3*l0 + 2*l1"),
    (("Qnr", 9, dict(r=5)), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0 + l1, 5*l0 + 2*l1, 3*l0 + 2*l1"),
    (("Tn4", 9, {}), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 4*l0 + 2*l1, 5*l0 + 2*l1, 3*l0 + 2*l1"),
    (("Tn3", 8, {}), "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 4*l0 + 2*l1, 3*l0 + 2*l1"),
    (("Cnrk", 9, dict(r=5, k=4)), "l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 9*l0, 10*l0, 11*l0"),
    (("Dnrk", 9, dict(r=3, k=2)), "l0, 5/2*l0, 7/2*l0, 9/2*l0, 11/2*l0, 13/2*l0, 15/2*l0, 17/2*l0, 6*l0"),
    (("Enrk", 9, dict(r=5, k=2)), "l0, 2*l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 9*l0, 7*l0"),
    (("Fnrk", 9, dict(r=3, k=1)), "l0, 3/2*l0, 5/2*l0, 7/2*l0, 9/2*l0, 11/2*l0, 13/2*l0, 8*l0, 4*l0"),
    (("Gnrk", 9, dict(r=5, k=3)), "l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 10*l0, 11*l0, 9*l0"),
    (("Hnrk", 10, dict(r=7, k=3)), "l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 8*l0, 9*l0, 12*l0, 11*l0"),
    (("E951", 9, {}), "l0, l0, 2*l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 5*l0"),
    (("E952", 9, {}), "l0, l0, 2*l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 5*l0"),
    (("E953", 9, {}), "l0, l0, 2*l0, 3*l0, 4*l0, 5*l0, 6*l0, 7*l0, 5*l0"),
    (("E73", 7, {}), "l0, l0, 2*l0, 3*l0, 4*l0, 5*l0, 3*l0"),
)


def _diagonal(spec, misprint=False):
    return ", ".join(str(w) for w in catalog.claimed_weights(replace(spec, misprint=misprint)))


def test_claimed_diagonals_golden():
    pinned = {token for (token, _, _), _ in CLAIMED_DIAGONALS}
    assert pinned == set(catalog.all_family_tokens()) - {"Cn"}
    for (token, n, kw), want in CLAIMED_DIAGONALS:
        assert _diagonal(spec_for(token, n, **kw)) == want, token
    with pytest.raises(UnknownFamilyError):
        catalog.claimed_weights(spec_for("Cn", 8))
    # the documented misprints: a stray symbol in one slot of QarrCb, a
    # product where a sum belongs in QarrCc
    assert _diagonal(spec_for("QarrCb", 9, l=3), misprint=True) == (
        "l0, -1/2*l0, l0*kp + l0, 3/2*l0, 5/2*l0, 7/2*l0, 9/2*l0, 4*l0, 3*l0")
    assert _diagonal(spec_for("QarrCc", 9), misprint=True) == (
        "l0, l1, l0 + l1, 2*l0 + l1, 3*l0 + l1, 4*l0 + l1, 5*l0*l1, 5*l0 + 2*l1, 4*l0 + 2*l1")
    with pytest.raises(InvalidParametersError):
        catalog.claimed_weights(replace(spec_for("Ln", 9), misprint=True))


TUPLE_COUNTS_TO_13 = {  # token: (valid tuples, sound tuples) with n <= 13
    "Ln": (11, 11), "Qn": (4, 4), "Ank": (45, 45), "Bnk": (20, 20), "Cn": (4, 4),
    "LsumC": (10, 10), "QsumC": (4, 4), "AsumC": (36, 36), "BsumC": (16, 16),
    "LarrC": (45, 45), "AarrC": (240, 240), "QarrCa": (20, 10), "BarrCa": (100, 50),
    "QarrCb": (20, 10), "QarrCc": (4, 4), "BarrCc": (16, 16), "Lnr": (25, 25),
    "Qnr": (10, 10), "Tn4": (4, 4), "Tn3": (4, 4), "Cnrk": (130, 130), "Dnrk": (30, 7),
    "Enrk": (50, 50), "Fnrk": (10, 0), "Gnrk": (12, 12), "Hnrk": (12, 12),
    "E951": (1, 1), "E952": (1, 1), "E953": (1, 1), "E73": (1, 1),
}


def test_tuple_counts_golden():
    got = {token: (len(list(catalog.family_def(token).tuples(13))),
                   len(list(catalog.sound_tuples(token, 13))))
           for token in catalog.all_family_tokens()}
    assert got == TUPLE_COUNTS_TO_13


def test_validation_messages_golden():
    for token, n, kw, message in (
            ("QsumC", 8, {}, "n must be odd and at least 7"),
            ("Lnr", 9, dict(r=4), "r must be odd"),
            ("Ank", 9, dict(k=8), "k must lie in [2, 6]"),
            ("E951", 10, {}, "n is fixed to 9"),
            ("Gnrk", 9, dict(r=4, k=2), "r is fixed to n-4 for this family"),
            ("Ank", 9, dict(k=2, l=3), "Ank: l not accepted")):
        with pytest.raises(InvalidParametersError) as info:
            catalog.validate_spec(spec_for(token, n, **kw))
        assert str(info.value) == message


# One sha256 per family over the canonical table of every valid tuple with
# n <= 13, the documented misprint variant included where one exists.
GENERATED_TABLE_SHA256 = {
    "Ln": "f5f74ac53a04c4c8dc01628f94a83d50aee26194ee54281c65699aa555b3f012",
    "Qn": "bc5971e712fbc9d466e3f64a9c86a151868be4eb735cd8c1971a0233aaa2c51e",
    "Ank": "548d0e911ae77c7cbe717057988371a83ba2241680e42c4d153e03738e3b8c40",
    "Bnk": "21a16245f438525078944dab99c6eed0b47801203519fa2393dbf0bacdb35d4b",
    "Cn": "94395a7b912f0a86a9837b49a27454bd121e5c126d30b21e85be4506be7e7deb",
    "LsumC": "6f01f430805909cf8254525bfe1287340425bffea81f2d12835ff75c6b9884bf",
    "QsumC": "7ee3f0b141add87c0bd6bf3ddab766fa941ddb4ecd54c8b838380dab7e052643",
    "AsumC": "264a0c6f014b32d8542f579318afd1682c80a157e0fa154a999c388dd9c40bbf",
    "BsumC": "8efe5b7de72e1a0a545ee00b4e0208f7108ef5a3613c4d86d2f832bee2a3f5e3",
    "LarrC": "9707507adb221b6bc1f1d7b50e94f1f26ef0263e7b6dded2d88388ef12b08b39",
    "AarrC": "6c1536f8994c689b0001a1734d78f3b5bf3d336cb343970b6bbcee1ca0968e74",
    "QarrCa": "121f1c4017dd4b22fc844b504087e452491b538246340be89ffd78b3167dec76",
    "BarrCa": "c8a08e2568621241bc44ca3af617c71712471d87bc321822514a21a93bf0dc31",
    "QarrCb": "f28f3e2815df1f9d75886d9169ed7146fb8fd1aa9eaebc86782d51a8c3ede44c",
    "QarrCc": "b66d62ccfc33b73b4c580393071598a7144698951a1f2fbc27369f153ef86c9a",
    "BarrCc": "7630266f22758e08974619eda35ac1b107b9bd6cee6e4aedd587b9529bc0ebea",
    "Lnr": "cf431865040884f48745c227d0e283117f5719ddfa7878e546896270b972cf55",
    "Qnr": "d8bd435a73a375d024e8e1fec68575e8e99b625d9013c651a0a6498b034ffeb6",
    "Tn4": "1da2b98d23aeb914e7e86645dfd0b59346191b1b00c51b7a6b79e7286735fada",
    "Tn3": "3dd7c9ce4f2b6cfc3eab712f3a7e1ba6f1503c339d0a0e22879ca9dd6562e78d",
    "Cnrk": "08cff54d303da0513ee8d5f2727134771cc6900c21eac22004a046a6736ba429",
    "Dnrk": "7107244ab81e963f401c5ce5f7e7c91072bf6edd7019e3ad663dab057170425b",
    "Enrk": "567820e048ff30493beab4220aca680f885acfd8fe34b79cf6c8801dc7e62f00",
    "Fnrk": "8422359566e0910bad6987dc6be45c9b40f73c834cb5864924fa5c276f921404",
    "Gnrk": "0848ece1c4c90a2d072e65cbb52c895faa044c5e4b0584f3824d243e6e7b8197",
    "Hnrk": "b69fb7fce791d2339a7ed1aa699b66b78275c9a21e1a7040cdff9c40596f5f51",
    "E951": "e45071137883820a0211994d470cfd956dededc6688c71f6b2abb713eef2f677",
    "E952": "3ec8b1ff5b239f5ea5ba0e0720682fc480f7b1167c44b86542602dd39fb3f1cf",
    "E953": "2b6fc5d867a99934a3a578a696a0ccc759ae67af4c61db1560b2f6eec010d0c8",
    "E73": "e85b050dc6d459134502ced245db44cd2a0a44843f39ceae6836ed847c37f511",
}


def test_generated_tables_golden():
    got = {}
    for token in catalog.all_family_tokens():
        variants = (False, True) if catalog.family_def(token).misprinted_table else (False,)
        text = "".join(f"{spec} misprint={misprint} {catalog.generate(replace(spec, misprint=misprint)).canonical()!r}\n"
                       for spec in catalog.family_def(token).tuples(13) for misprint in variants)
        got[token] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GENERATED_TABLE_SHA256
    # the alpha count is the parameter count of the generated table
    for token in catalog.all_family_tokens():
        for spec in catalog.family_def(token).tuples(17):
            assert catalog.alpha_count(spec) == len(catalog.generate(spec).params), spec


# One sha256 per family over the generators of ``extract_constraints`` on every
# valid tuple with n <= 13 and the alphas ``sample_alphas`` finds on every sound
# one, the documented misprint variant included where one exists.
CONSTRAINTS_SHA256 = {
    "Ln": "8f1b646007b2d277b1ca35da9e5d4e23a5e3f36c78a4e96ce32e0bca3c58405f",
    "Qn": "11c5061f5265fcfee1240787be93bbee95abc322d36174682519443f759c0364",
    "Ank": "5494c4d7219ade77ed63e30ac7b232a5375803bebfecb96f2ff017fa81a4b174",
    "Bnk": "2dcc89076e16540bbddc11bb6a14ddbd07ffbc13b6be13187581f8d1f23ce5b1",
    "Cn": "43734bec7db7a2555365f29dce6297fa90e714fbb364ae0ce6919c097420c9f8",
    "LsumC": "f6415031da8ebc96ce8c15b54c3aa9696573a47f73754d5a2ee2dcdf5b975c4b",
    "QsumC": "5fb1a36d42e58a6833a392ce367e54eb0f2b3104d6d7649bce064889899af5e8",
    "AsumC": "1b7c35746dccdfcaa05e9defc7e46eacf69f88a516725559109b337587be8f08",
    "BsumC": "13d504c5dab69caff202ba6c9100ced5cf8a928b8b46e7c39702dfad21357ab9",
    "LarrC": "e61b0d8392920eb3fe55ef436dee09f8b9a981892991edb810c72d720b44f7ea",
    "AarrC": "08ca9730b7161e26f84509eef523fb128903802c44b4196bfec914a580bbe36d",
    "QarrCa": "a7bd305368552e73c16f34098249f020f271f067475cbdde854a72732a870b38",
    "BarrCa": "5dae29e561a40ed721772dc608967e3d10b61eded0b040cffeb8b6b8ff465926",
    "QarrCb": "278f2e92ed19ea3431640d5d56766b58ff9185763700f108b4f842801202c3a4",
    "QarrCc": "a5c6ecacba686a54f4f1140e4b12bc3e149d2d392e0770ac2d506a02db3639c1",
    "BarrCc": "46039e057506a4072446e0b144f83ed8a142ac92bdc6cb10d60245ffbaa9988c",
    "Lnr": "82e8165602eb61c42e033c99eae711de2db76daffd079d529ed7b0601da154ca",
    "Qnr": "291ffcaf2f45ea92be4abad26fd7fc917ddff0d93b8a7617c231755349413af3",
    "Tn4": "1a380b84c662f7fa190cfb4407f84f3efb19b8b47af8a45d51c8f600bf04d167",
    "Tn3": "9c9067baf1bb9fd6340660082048dbf74e06e9a02397581a29c0e777881399a0",
    "Cnrk": "d6bbbbd24426c4976541130907d6dcf16e56005f6783fdbcddb68f184e8bfa28",
    "Dnrk": "65e29f6bdd7e91f8791d9f298d5cdb2ec6fce3c8e7de21e13a6bebe32152a8e9",
    "Enrk": "84e80a62c38bebf5acc5cdba1cc6bf7fa68e933fbdad65b897c79bb5e99460d0",
    "Fnrk": "49c75ea2425a9f741d71e694ad23cabce5fe4d6364872073bac53d10b05d640d",
    "Gnrk": "06be5e928e509fad108b4eabfe15b0c89d4a46bffeec58c578959b562b8461bc",
    "Hnrk": "3dc68db2d953f5a8d4d3079398ebf93d03d304f3d5c91e172bed46bf48069584",
    "E951": "52ad3066fd7529f7b7f84e3ae943f43bfbfd0d3f961d102b996dc5c24bf156ee",
    "E952": "2815b29fcf7071679beb7313c4bb2882ced347462accc3d48c01a8f13254fb50",
    "E953": "3fe7652f023a3554dfd4e1bdc8ba30584104c328cdf587726c3ff12ba974e71c",
    "E73": "165054b354eeac20f37632a7d3abb3358b5307c143d79e1bb9ff94410f7f713d",
}


def test_constraints_golden():
    def alphas(spec, misprint):
        found = catalog.sample_alphas(replace(spec, misprint=misprint))
        return None if found is None else [str(a) for a in found]

    got = {}
    for token in catalog.all_family_tokens():
        variants = (False, True) if catalog.family_def(token).misprinted_table else (False,)
        text = "".join(
            f"{spec} misprint={misprint} "
            f"{[str(g) for g in catalog.extract_constraints(replace(spec, misprint=misprint)).generators]!r}\n"
            for spec in catalog.family_def(token).tuples(13) for misprint in variants)
        text += "".join(f"{spec} misprint={misprint} alphas={alphas(spec, misprint)!r}\n"
                        for spec in catalog.sound_tuples(token, 13) for misprint in variants)
        got[token] = hashlib.sha256(text.encode()).hexdigest()
    assert got == CONSTRAINTS_SHA256


def test_sampled_alphas_golden_beyond_thirteen():
    # the symbolic workload's range: every sound tuple with 14 <= n <= 17
    specs = [spec for token in catalog.all_family_tokens()
             for spec in catalog.sound_tuples(token, 17) if spec.n >= 14]
    text = "".join(f"{spec} {None if found is None else [str(a) for a in found]!r}\n"
                   for spec in specs for found in [catalog.sample_alphas(spec)])
    assert len(specs) == 1278
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3aa4f4af8389a0fb7cb78166b7d0c6f240b403e27293913a91a305d262487d2c"


def test_constraints_golden_beyond_thirteen():
    # the generators of every valid tuple with 14 <= n <= 17, the documented
    # table misprint variant included where one exists
    specs = [replace(spec, misprint=misprint) for token in catalog.all_family_tokens()
             for spec in catalog.family_def(token).tuples(17) if spec.n >= 14
             for misprint in ((False, True) if catalog.family_def(token).misprinted_table else (False,))]
    text = "".join(f"{spec} {[str(g) for g in catalog.extract_constraints(spec).generators]!r}\n"
                   for spec in specs)
    assert len(specs) == 2065
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0fad53db16052ef2d4690cbfc5c81bfbb75971a10264030c5c0b32182944da25"


def test_fixed_family_tuples_end_at_their_n():
    # a fixed-n family has one dimension, however far the sweep reaches
    start = time.perf_counter()
    assert list(catalog.family_def("E73").tuples(10**12)) == [spec_for("E73", 7)]
    assert list(catalog.family_def("E73").tuples(6)) == []
    assert time.perf_counter() - start < 1
