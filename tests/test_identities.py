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
          "_kron_splits", "_skewed", "_kron_schur", "_verdict")


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


@pytest.fixture
def cold_memos():
    """The memos cleared before the test and again after it, so no entry
    built under a planted fault outlives the test."""
    _clear_memos()
    yield
    _clear_memos()


def test_cor_entries_check_the_structure_constant_forms(cold_memos, monkeypatch):
    # Kronecker coefficients enter only the structure-constant sides of
    # relations 3-6 (sf.kronecker goes through the p basis): zeroing them
    # must break the thm_main_cor entries and leave the thm_main ones intact,
    # whose term lists are built afresh under the planted fault
    monkeypatch.setattr(coeffs, "kron_coeff", lambda *args: 0)
    prm = {"alpha": (1,), "beta": (1,), "vector_bound": 2}
    for i in range(3, 7):
        assert idn.verify_instance(f"thm_main_{i}", prm).passed
        assert not idn.verify_instance(f"thm_main_cor_{i}", prm).passed


def _written_out_tables(alpha, beta):
    """The corollary's four coefficient sums at (alpha, beta), each index
    running over `partitions_of` and each coefficient read from `coeffs`:
    relation 1, relation 2 (twisted), relations 3-4 and relations 5-6, as
    {(mu, nu): c} without zeros."""
    a, b = sum(alpha), sum(beta)
    lr, g = coeffs.lr_coeff, coeffs.kron_coeff
    du, twisted, ku, kbu = {}, {}, {}, {}

    def add(table, key, c):
        table[key] = table.get(key, 0) + c

    for k in range(min(a, b) + 1):
        for lam in pt.partitions_of(k):
            for mu in pt.partitions_of(a - k):
                c1 = lr(alpha, lam, mu)
                for nu in pt.partitions_of(b - k):
                    add(du, (mu, nu), c1 * lr(beta, lam, nu))
                    add(twisted, (mu, nu),
                        (-1) ** k * c1 * lr(beta, pt.conjugate(lam), nu))
    if a <= b:
        for lam in pt.partitions_of(a):
            for mu in pt.partitions_of(a):
                for nu in pt.partitions_of(b - a):
                    add(ku, (mu, nu), g(alpha, lam, mu) * lr(beta, lam, nu))
    for k in range(min(a, b) + 1):
        for nu in pt.partitions_of(b - k):
            for lam in pt.partitions_of(k):
                c_bn = lr(beta, lam, nu)
                for tau in pt.partitions_of(k):
                    for sigma in pt.partitions_of(a - k):
                        c_as = lr(alpha, tau, sigma)
                        for theta in pt.partitions_of(k):
                            w = g(lam, tau, theta) * c_bn * c_as
                            if not w:
                                continue
                            for mu in pt.partitions_of(a):
                                add(kbu, (mu, nu), w * lr(mu, theta, sigma))
    return [{key: c for key, c in t.items() if c}
            for t in (du, twisted, ku, kbu)]


def test_coefficient_tables_are_the_written_out_sums():
    # the three tables joined from the memoized splits hold exactly the
    # corollary's sums, for every |alpha|, |beta| <= 4
    for alpha in pt.partitions_upto(4):
        for beta in pt.partitions_upto(4):
            got = [idn._cor_coeffs_du(alpha, beta, twisted=False),
                   idn._cor_coeffs_du(alpha, beta, twisted=True),
                   idn._cor_coeffs_ku(alpha, beta),
                   idn._cor_coeffs_kbu(alpha, beta)]
            got = [{key: c for key, c in t.items() if c} for t in got]
            assert got == _written_out_tables(alpha, beta), (alpha, beta)


def test_malformed_partition_params_are_named():
    for bad in (3, None, [[1]], [-1], "x"):
        with pytest.raises(ValueError, match="malformed params for "
                           "straightcorners: alpha is not a partition"):
            idn.verify_instance("straightcorners", {"alpha": bad})
    with pytest.raises(ValueError, match="theta is not a partition"):
        idn.verify_instance("tabmanip2", {"alpha": (2, 1), "theta": 1})


def test_malformed_integer_params_are_named():
    # a negative bound used to pass with 0 instances, and a string, a
    # fraction or None raised a raw TypeError
    for ident, prm, key in (
        ("kb1", {"vector_bound": -1}, "vector_bound"),
        ("kb1", {"vector_bound": 2.5}, "vector_bound"),
        ("kb1", {"vector_bound": None}, "vector_bound"),
        ("kbk_ud", {"k": "x", "vector_bound": 2}, "k"),
        ("gessel_1", {"m": -1, "n": 1, "vector_bound": 2}, "m"),
        ("gessel_1", {"m": 1, "n": [1], "vector_bound": 2}, "n"),
        ("littlewood_sum", {"alpha": (2, 1), "q": None}, "q"),
    ):
        with pytest.raises(ValueError, match=f"malformed params for {ident}: "
                           f"{key} is not an integer >= 0"):
            idn.verify_instance(ident, prm)
    want = idn.verify_instance("kbk_ud", {"k": 2, "vector_bound": 3})
    assert want.passed and want.instances > 0
    for spelled in ({"k": "2", "vector_bound": "3"}, {"k": 2.0, "vector_bound": 3.0}):
        got = idn.verify_instance("kbk_ud", spelled)
        assert (got.passed, got.instances, got.params) == (
            True, want.instances, want.params)


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


# ---------------------------------------------------------------------------
# the corollary and commutator entries share the relations' verdicts

_FAMILY = ([f"thm_main_{i}" for i in range(1, 7)]
           + [f"thm_main_cor_{i}" for i in range(1, 7)]
           + ["commutators_1", "commutators_2", "commutators_3"])


def _json_outcome(reports):
    """Each report as JSON without its time, failures as printed."""
    return [{k: v for k, v in r.to_json().items() if k != "elapsed"} for r in reports]


def _evaluating(monkeypatch):
    """Make every corollary and commutator entry evaluate its own sides,
    as if no collected comparison ever held."""
    monkeypatch.setattr(idn, "_table_collects", lambda i, a, b: False)
    sides = idn._commutator_sides
    monkeypatch.setattr(idn, "_commutator_sides",
                        lambda *args: (sides(*args)[0], False))


def _zeroed_kron(monkeypatch):
    # only the structure-constant tables of relations 3-6 read kron_coeff
    monkeypatch.setattr(coeffs, "kron_coeff", lambda *args: 0)


def _dropped_skew_term(monkeypatch):
    # relations 1 and 5 lose the last of two or more skew terms: the swapped
    # term (1, s_a, s_b) in relation 5, another one in relation 1
    for i in (1, 5):
        lhs, word, skew_terms, table = idn._RELATIONS[i]

        def dropped(a, b, skew_terms=skew_terms):
            terms = skew_terms(a, b)
            return terms[:-1] if len(terms) > 1 else terms

        monkeypatch.setitem(idn._RELATIONS, i, (lhs, word, dropped, table))


@pytest.mark.parametrize("plant", [_zeroed_kron, _dropped_skew_term])
def test_shared_verdicts_report_what_evaluation_reports(cold_memos, monkeypatch,
                                                        plant):
    # under a planted fault, every entry of the family gives the same report
    # inside the whole catalog, alone and cold through run_suite, alone and
    # cold through verify_instance (instances in reverse order) and with the
    # collected comparisons switched off, byte for byte
    plant(monkeypatch)
    bounds = idn.Bounds(2, 3)
    whole = {r.identity: r for r in idn.run_suite(bounds)}
    failing = {ident for ident in _FAMILY if not whole[ident].passed}
    assert failing and failing != set(_FAMILY)
    for ident in _FAMILY:
        want = _json_outcome([whole[ident]])
        _clear_memos()
        assert _json_outcome(idn.run_suite(bounds, ids=[ident])) == want, ident
        _clear_memos()
        instances = idn.CATALOG[ident].instances(bounds)[::-1]
        alone = [idn.verify_instance(ident, prm) for prm in instances]
        assert sum(r.instances for r in alone) == whole[ident].instances
        assert sorted(f.describe() for r in alone for f in r.failures) == sorted(
            f.describe() for f in whole[ident].failures), ident
    _clear_memos()
    _evaluating(monkeypatch)
    evaluated = idn.run_suite(bounds, ids=_FAMILY)
    assert _json_outcome(evaluated) == _json_outcome([whole[i] for i in _FAMILY])


def test_zeroed_kronecker_coefficients_fail_the_pinned_counts(cold_memos,
                                                              monkeypatch):
    _zeroed_kron(monkeypatch)
    reports = idn.run_suite(idn.Bounds(2, 3))
    failed = {r.identity: len(r.failures) for r in reports if not r.passed}
    assert failed == {"thm_main_cor_3": 13, "thm_main_cor_4": 15,
                      "thm_main_cor_5": 95, "thm_main_cor_6": 57, "similar": 3}


def test_dropped_skew_terms_fail_the_relations_and_commutators(cold_memos,
                                                               monkeypatch):
    # relation 1's commutator is its relation rearranged, so it fails where
    # the relation fails; relation 5 lost its swapped term, which its
    # commutator does not contain, so commutators_2 still holds
    _dropped_skew_term(monkeypatch)
    bounds = idn.Bounds(2, 3)
    reports = {r.identity: r for r in idn.run_suite(bounds, ids=_FAMILY)}
    failed = {i for i, r in reports.items() if not r.passed}
    assert failed == {"thm_main_1", "thm_main_5", "commutators_1"}
    gammas = [f.params for f in reports["commutators_1"].failures]
    assert gammas == [f.params for f in reports["thm_main_1"].failures]


@pytest.mark.parametrize("i", range(1, 7))
def test_a_dropped_table_entry_fails_on_the_gammas_where_it_is_missed(
        cold_memos, monkeypatch, i):
    # the first key of relation i's table at one (a, b) is dropped: the
    # collected comparison fails there, and the corollary entry reports
    # exactly the gammas where the two sides differ, with both images, while
    # the relation itself (run first, so its verdict is warm) still holds
    a, b = (1, 1), (2,)
    lhs_letters, word, skew_terms, coef_table = idn._RELATIONS[i]

    def dropped(x, y):
        table = coef_table(x, y)
        return dict(list(table.items())[1:]) if (x, y) == (a, b) else table

    monkeypatch.setitem(idn._RELATIONS, i, (lhs_letters, word, skew_terms, dropped))
    assert not idn._table_collects(i, a, b)
    bounds = idn.Bounds(2, 3)
    relation, cor = idn.run_suite(bounds, ids=[f"thm_main_{i}", f"thm_main_cor_{i}"])
    assert relation.passed and idn._verdict.cache_info().currsize > 0
    lhs, _skew, coef_rhs = idn.normal_order_forms(i, a, b)
    prm = {"alpha": a, "beta": b, "vector_bound": bounds.max_g}
    want = []
    for gamma in pt.partitions_upto(bounds.max_g):
        g = sf.schur(gamma)
        left, right = lhs.apply(g), coef_rhs.apply(g)
        if left != right:
            want.append(Failure({**prm, "gamma": gamma}, left, right))
    assert want and cor.failures == want
    assert cor.instances == relation.instances


def test_a_second_dropped_skew_term_fails_the_commutators(cold_memos, monkeypatch):
    # _reduced drops one more skew term than the swapped one: the sides no
    # longer collect to their relation, and each commutator fails on a gamma
    real = idn._reduced

    def reduced(i, a, b):
        comm, rest = real(i, a, b)
        return comm, op.OperatorExpr._trusted(rest.words[1:])

    monkeypatch.setattr(idn, "_reduced", reduced)
    assert not idn._commutator_sides(1, (2,), (1,), (1,))[1]
    prm = {"alpha": (1,), "beta": (1,), "vector_bound": 3}
    for ident in ("commutators_1", "commutators_2", "commutators_3"):
        report = idn.verify_instance(ident, prm)
        assert not report.passed, ident
        for f in report.failures:
            assert f.lhs != f.rhs and "gamma" in f.params
