import json
from fractions import Fraction

import pytest

from symop import coeffs, identities as idn, operators as op, partitions as pt
from symop import symfunc as sf
from symop.reporting import Failure, VerificationReport


def test_verify_instance_basic():
    report = idn.verify_instance(
        "thm_main_1", {"alpha": (1,), "beta": (1,), "vector_bound": 3}
    )
    assert report.passed
    assert report.instances == len(pt.partitions_upto(3))


def test_one_box_relation_recovered():
    # the (1),(1) instance of the first relation is D_1 U_1 = U_1 D_1 + 1
    lhs, skew_rhs, coef_rhs = idn.normal_order_forms(1, (1,), (1,))
    direct = op.U(sf.schur((1,))) * op.D(sf.schur((1,))) + op.identity_op()
    for gamma in pt.partitions_upto(4):
        g = sf.schur(gamma)
        assert lhs.apply(g) == skew_rhs.apply(g) == coef_rhs.apply(g)
        assert skew_rhs.apply(g) == direct.apply(g)


def test_straightcorners_instance():
    report = idn.verify_instance("straightcorners", {"alpha": (2, 1)})
    assert report.passed
    want = sf.SymFunc("s", {(3,): 1, (2, 1): 1, (1, 1, 1): 1})
    assert op.apply_KB(sf.schur((1,)), sf.schur((2, 1))) == want


def test_skew_corners_instance():
    report = idn.verify_instance("skew_corners", {"alpha": (2, 1), "theta": (1,)})
    assert report.passed
    lhs = sf.kronecker(sf.skew_schur((2, 1), (1,)), sf.schur((1, 1)))
    assert lhs == sf.SymFunc("s", {(2,): 1, (1, 1): 1})


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        idn.verify_instance("nonsense", {})
    with pytest.raises(ValueError):
        idn.run_suite(idn.Bounds(1, 1), ids=["nonsense"])
    for i in (0, 7):
        with pytest.raises(ValueError):
            idn.normal_order_forms(i, (1,), (1,))


def test_malformed_params_rejected():
    with pytest.raises(ValueError):
        idn.verify_instance("thm_main_1", {"alpha": (1,)})


def test_corrupted_entry_reports_counterexample():
    # harness self-test: an entry with a deliberately flipped sign must
    # fail and carry a concrete counterexample
    def bad_check(prm):
        a = prm["alpha"]
        lhs = op.apply_KB(sf.schur((1,)), sf.schur(a))
        rhs = sf.scale(pt.noc(a) + 1, sf.schur(a))  # wrong: should be noc - 1
        for b in pt.addremove_set(a):
            rhs = sf.add(rhs, sf.schur(b))
        if lhs != rhs:
            return 1, [Failure(prm, lhs, rhs)]
        return 1, []

    entry = idn.Entry(
        "bad_straightcorners",
        "deliberately corrupted",
        lambda bounds: [{"alpha": a} for a in pt.partitions_upto(bounds.max_g)],
        bad_check,
    )
    failures = []
    checked = 0
    for prm in entry.instances(idn.Bounds(1, 3)):
        c, fl = entry.check(prm)
        checked += c
        failures += fl
    assert checked > 0 and failures
    detail = failures[0].describe()
    assert "lhs" in detail and "rhs" in detail


# the pieces of an instance that `identities` memoizes by canonical
# partitions
_MEMOS = ("_du_terms", "_skew_kron_terms", "_kbu_terms", "_lr_splits",
          "_kron_splits", "_skewed", "_kron_schur")


def _clear_memos():
    for name in _MEMOS:
        getattr(idn, name).cache_clear()


def _outcome(reports):
    return [(r.identity, r.instances, r.passed, r.failures) for r in reports]


def test_memoized_pieces_give_the_same_reports_warm_and_cold():
    cached = {name for name, f in vars(idn).items() if hasattr(f, "cache_clear")}
    assert cached == set(_MEMOS)
    bounds = idn.Bounds(2, 4)
    first = _outcome(idn.run_suite(bounds))
    assert all(passed for _ident, _n, passed, _fl in first)
    assert _outcome(idn.run_suite(bounds)) == first
    for name in _MEMOS:
        memo = getattr(idn, name)
        assert memo.cache_info().hits > 0, name
        memo.cache_clear()
        assert _outcome(idn.run_suite(bounds)) == first, name
        assert memo.cache_info().misses > 0, name


def _spellings(prm):
    """prm with its partitions as tuples, as lists, through JSON, and
    padded with zeros."""
    parts = idn._PARTITION_PARAMS.intersection(prm)
    return [
        prm,
        {k: list(v) if k in parts else v for k, v in prm.items()},
        json.loads(json.dumps(prm)),
        {k: (*v, 0, 0) if k in parts else v for k, v in prm.items()},
    ]


def test_verify_instance_canonicalizes_partition_params():
    bounds = idn.Bounds(2, 3)
    for ident, entry in idn.CATALOG.items():
        for prm in entry.instances(bounds)[-2:]:
            want = idn.verify_instance(ident, prm)
            assert want.passed, ident
            for spelled in _spellings(prm):
                got = idn.verify_instance(ident, spelled)
                assert (got.passed, got.instances) == (True, want.instances), (
                    ident, spelled)
                assert got.params == want.params
    # a trailing zero once gave false counterexamples here
    assert idn.verify_instance("straightcorners", {"alpha": (2, 1, 0)}).passed
    assert idn.verify_instance("tabmanip2", {"alpha": (2, 1, 0), "theta": (1,)}).passed


def test_run_suite_small_bounds_all_pass():
    reports = idn.run_suite(idn.Bounds(max_ab=1, max_g=2))
    assert [r.identity for r in reports] == list(idn.CATALOG)
    assert all(r.passed for r in reports)


def test_run_suite_subset_and_order():
    reports = idn.run_suite(idn.Bounds(1, 2), ids=["kb1", "gessel_1"])
    assert [r.identity for r in reports] == ["kb1", "gessel_1"]
    assert all(r.passed for r in reports)


def test_run_suite_pinned_instance_counts():
    # every entry's work at (2,3), in catalog order: a checker that silently
    # drops instances changes its count
    ab = dict.fromkeys(
        [f"thm_main_{i}" for i in range(1, 7)]
        + [f"thm_main_cor_{i}" for i in range(1, 7)]
        + ["commutators_1", "commutators_2", "commutators_3"],
        112,
    )
    want = {
        **ab, "foulkes": 72, "littlewood": 72, "similar": 72,
        "reverse_foulkes": 112, "gessel_1": 63, "gessel_2": 28,
        "gessel_3": 28, "kb1": 7, "straightcorners": 7, "kbk_ud": 14,
        "kbf_ud": 28, "tworow_hook": 224, "littlewood_sum": 36,
        "skew_corners": 8, "nokronecker": 8, "tabmanip2": 210,
    }
    reports = idn.run_suite(idn.Bounds(2, 3))
    assert all(r.passed for r in reports)
    got = {r.identity: r.instances for r in reports}
    assert list(got.items()) == list(want.items())


def test_tabmanip2_count_at_the_benchmark_bound():
    # the bijection check at the bounds of the catalog benchmark
    [report] = idn.run_suite(idn.Bounds(3, 5), ["tabmanip2"])
    assert report.passed
    assert report.instances == 14307


def test_main_and_coefficient_forms_agree():
    for i in range(1, 7):
        for alpha in pt.partitions_upto(2):
            for beta in pt.partitions_upto(2):
                lhs, skew_rhs, coef_rhs = idn.normal_order_forms(i, alpha, beta)
                for gamma in pt.partitions_upto(3):
                    g = sf.schur(gamma)
                    val = lhs.apply(g)
                    assert skew_rhs.apply(g) == val
                    assert coef_rhs.apply(g) == val


def test_cor_entries_check_the_structure_constant_forms(monkeypatch):
    # Kronecker coefficients enter only the structure-constant sides of
    # relations 3-6 (sf.kronecker goes through the p basis): zeroing them
    # must break the thm_main_cor entries and leave the thm_main ones intact,
    # whose term lists are built afresh under the planted fault
    _clear_memos()
    monkeypatch.setattr(coeffs, "kron_coeff", lambda *args: 0)
    prm = {"alpha": (1,), "beta": (1,), "vector_bound": 2}
    for i in range(3, 7):
        assert idn.verify_instance(f"thm_main_{i}", prm).passed
        assert not idn.verify_instance(f"thm_main_cor_{i}", prm).passed


def test_reverse_foulkes_matches_second_relation():
    # U_a D_b applied to s_g is s_a s_{g/b}; the signed skew expansion of
    # the second relation applied to s_g is the other side
    for alpha in pt.partitions_upto(3):
        for beta in pt.partitions_upto(3):
            lhs, skew_rhs, _ = idn.normal_order_forms(2, alpha, beta)
            for gamma in pt.partitions_upto(4):
                g = sf.schur(gamma)
                assert lhs.apply(g) == sf.mul(
                    sf.schur(alpha), sf.skew_schur(gamma, beta)
                )
                rf = sf.zero()
                for lam in pt.sub_partitions(alpha):
                    lamc = pt.conjugate(lam)
                    if not pt.contains(lamc, beta):
                        continue
                    sign = -1 if sum(lam) % 2 else 1
                    inner = sf.mul(sf.skew_schur(alpha, lam), g)
                    rf = sf.add(
                        rf, sf.scale(sign, sf.skew(inner, sf.skew_schur(beta, lamc)))
                    )
                assert skew_rhs.apply(g) == rf


def test_littlewood_matches_third_relation():
    for alpha in pt.partitions_upto(3):
        sa = sf.schur(alpha)
        for beta in pt.partitions_upto(3):
            lhs, _skew_rhs, _ = idn.normal_order_forms(3, alpha, beta)
            for gamma in pt.partitions_upto(4):
                g = sf.schur(gamma)
                assert lhs.apply(g) == sf.kronecker(sf.schur(beta), sf.mul(sa, g))


def test_report_json_shape():
    report = idn.verify_instance("kb1", {"vector_bound": 2})
    blob = report.to_json()
    assert blob["identity"] == "kb1"
    assert blob["passed"] is True
    assert blob["failures"] == []
    # params are JSON values: tuples become lists, Fractions strings
    report = idn.verify_instance("skew_corners", {"alpha": (2, 1), "theta": (1,)})
    params = json.loads(json.dumps(report.to_json()))["params"]
    assert params == {"alpha": [2, 1], "theta": [1]}
    assert {k: tuple(v) for k, v in params.items()} == report.params
    blob = VerificationReport("x", {"c": Fraction(-1, 2), "lam": ((2, 1), ())}, 0)
    assert blob.to_json()["params"] == {"c": "-1/2", "lam": [[2, 1], []]}
    # suite reports keep their text params
    suite = idn.run_suite(idn.Bounds(1, 1), ["kb1"])[0]
    assert suite.to_json()["params"] == "bounds max_ab=1 max_g=1"


def test_tworow_hook_checks_the_product_form_through_apply_KB(monkeypatch):
    # the second pass applies KB_k to the product s_a s_gamma, so a wrong
    # apply_KB breaks it, while the operator pass never calls apply_KB
    prm = {"alpha": (1,), "k": 1, "vector_bound": 2}
    gammas = pt.partitions_upto(2)
    assert idn.verify_instance("tworow_hook", prm).passed
    real = op.apply_KB
    monkeypatch.setattr(op, "apply_KB", lambda f, g: real(f, g) + sf.schur((1,)))
    report = idn.verify_instance("tworow_hook", prm)
    assert report.instances == 4 * len(gammas)
    assert [f.params for f in report.failures] == [
        {**prm, "index": index, "form": "product", "gamma": gamma}
        for index in ("two-row", "hook")
        for gamma in gammas
    ]


def test_commutators_drop_exactly_one_skew_term():
    # each commutator is its relation with the one skew term (1, s_a, s_b)
    # moved to the left side; it comes first in relation 1 and last in 5
    for i in (1, 2, 5, 6):
        skew_terms = idn._RELATIONS[i][2]
        for a in pt.partitions_upto(2):
            for b in pt.partitions_upto(2):
                swapped = (1, sf.schur(a), sf.schur(b))
                assert [t == swapped for t in skew_terms(a, b)].count(True) == 1


def test_ops_equal_reports_exactly_the_gammas_where_one_expression_differs():
    # DU = UD + Id holds; adding D(s[2]) to the third expression breaks it
    # exactly on the s_gamma with gamma containing (2)
    one = sf.schur((1,))
    ud_id = op.U(one) * op.D(one) + op.identity_op()
    exprs = [op.D(one) * op.U(one), ud_id, ud_id + op.D(sf.schur((2,)))]
    bound = 4
    gammas = pt.partitions_upto(bound)
    wrong = [g for g in gammas if pt.contains((2,), g)]
    assert 0 < len(wrong) < len(gammas)
    checked, failures = idn._ops_equal({"tag": 1}, exprs, bound)
    assert checked == len(gammas)
    assert [f.params for f in failures] == [{"tag": 1, "gamma": g} for g in wrong]
    for f in failures:
        s_g = sf.schur(f.params["gamma"])
        assert f.lhs == exprs[0].apply(s_g)
        assert f.rhs == exprs[2].apply(s_g)
        assert f.lhs != f.rhs
    assert idn._ops_equal({}, exprs[:2], bound) == (len(gammas), [])


# each relation's left side at (s_a, s_b) and its word at (x, y), composed
# through the generators of `operators`
_COMPOSED = {
    1: (lambda sa, sb: op.D(sb) * op.U(sa), lambda x, y: op.U(x) * op.D(y)),
    2: (lambda sa, sb: op.U(sa) * op.D(sb), lambda x, y: op.D(y) * op.U(x)),
    3: (lambda sa, sb: op.K(sb) * op.U(sa), lambda x, y: op.U(x) * op.K(y)),
    4: (lambda sa, sb: op.D(sa) * op.K(sb), lambda x, y: op.K(y) * op.D(x)),
    5: (lambda sa, sb: op.KB(sb) * op.U(sa), lambda x, y: op.U(x) * op.KB(y)),
    6: (lambda sa, sb: op.D(sa) * op.KB(sb), lambda x, y: op.KB(y) * op.D(x)),
}


def _composed_sum(word, terms):
    total = op.zero_op()
    for c, x, y in terms:
        total = total + c * word(x, y)
    return total


def _gens(expr):
    """The words of expr with each generator as (kind, its terms), so that
    words can be compared without SymFunc equality."""
    return [(type(c), c, [(k, dict(f.terms)) for k, f in w]) for c, w in expr.words]


def test_letter_words_equal_the_composed_words():
    # coefficients, order and dropped zero terms, for every relation in
    # both forms and for the reduced relations of the three commutators
    for a in pt.partitions_upto(2):
        for b in pt.partitions_upto(2):
            sa, sb = sf.schur(a), sf.schur(b)
            for i, (lhs, word) in _COMPOSED.items():
                _lhs, _word, skew_terms, coef_table = idn._RELATIONS[i]
                table = coef_table(a, b)
                want = [
                    lhs(sa, sb),
                    _composed_sum(word, skew_terms(a, b)),
                    _composed_sum(word, [(c, sf.schur(mu), sf.schur(nu))
                                         for (mu, nu), c in table.items()]),
                ]
                got = idn.normal_order_forms(i, a, b)
                assert [_gens(e) for e in got] == [_gens(e) for e in want], (i, a, b)
            for i in (1, 2, 5, 6):
                lhs, word = _COMPOSED[i]
                rest = [t for t in idn._RELATIONS[i][2](a, b) if t != (1, sa, sb)]
                want = (lhs(sa, sb) - word(sa, sb), _composed_sum(word, rest))
                got = idn._reduced(i, a, b)
                assert [_gens(e) for e in got] == [_gens(e) for e in want], (i, a, b)
    # a zero coefficient or a zero factor gives no word
    s1 = sf.schur((1,))
    terms = [(2, s1, s1), (0, s1, s1), (1, sf.zero(), s1), (-1, s1, sf.zero()),
             (Fraction(1, 3), sf.schur((2,)), s1)]
    for i, (_lhs, word) in _COMPOSED.items():
        got = idn._word_sum(idn._RELATIONS[i][1], terms)
        assert _gens(got) == _gens(_composed_sum(word, terms))
        assert len(got.words) == 2
