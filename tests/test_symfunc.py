import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from symop import coeffs, partitions as pt, symfunc as sf, tableaux as tb


def test_add_and_scale():
    s21 = sf.schur((2, 1))
    assert sf.add(s21, sf.zero()) == s21
    assert sf.add(sf.schur((2,)), sf.schur((2,))) == sf.scale(2, sf.schur((2,)))
    assert (sf.schur((2,)) - sf.schur((2,))).is_zero()
    assert sf.add(sf.h(2), sf.schur((2,))) == sf.scale(2, sf.schur((2,)))


def _fold(terms):
    total = sf.zero()
    for c, f in terms:
        total = sf.add(total, sf.scale(c, f))
    return total


def test_linear_combination_matches_add_scale_fold():
    terms = [
        (Fraction(3, 2), sf.schur((2, 1))),
        (-2, sf.h((2, 1))),
        (1, sf.e((3,))),
        (Fraction(-1, 3), sf.p((2, 1))),
        (4, sf.SymFunc("p", {(1, 1): 1, (2,): -1})),
        (0, sf.h((1,))),
    ]
    got = sf.linear_combination(terms)
    want = _fold(terms)
    assert got.basis == want.basis == "s"
    assert got.terms == want.terms
    for basis in "hep":
        one_basis = [(c, sf.to_basis(f, basis)) for c, f in terms]
        assert sf.linear_combination(one_basis).terms == _fold(one_basis).terms


def test_linear_combination_cancels_empty_and_generator():
    s21 = sf.schur((2, 1))
    zero = sf.linear_combination([(1, s21), (1, sf.h((3,))), (-1, s21),
                                  (-1, sf.schur((3,)))])
    assert zero.is_zero() and zero.basis == "s"
    empty = sf.linear_combination([])
    assert empty.is_zero() and empty.basis == sf.zero().basis
    gen = sf.linear_combination((k, sf.p(k)) for k in range(1, 4))
    assert gen == sf.add(sf.p(1), sf.add(sf.scale(2, sf.p(2)), sf.scale(3, sf.p(3))))


def test_linear_combination_cancels_over_mixed_denominators():
    s21, s3 = sf.schur((2, 1)), sf.schur((3,))
    zero = sf.linear_combination([(Fraction(1, 2), s21), (Fraction(1, 3), s21),
                                  (Fraction(-5, 6), s21)])
    assert zero.is_zero() and zero.basis == "s"
    # the denominators also come from the operands, here 1/z_rho of h_3 in p
    h3 = sf.to_basis(sf.h(3), "p")
    zero = sf.linear_combination([(Fraction(1, 2), h3), (Fraction(1, 3), sf.h(3)),
                                  (Fraction(-5, 6), s3)])
    assert zero.is_zero() and zero.basis == "s"
    left = sf.linear_combination([(Fraction(1, 2), s21), (Fraction(2, 3), s3),
                                  (Fraction(-1, 6), s21), (Fraction(-1, 3), s21)])
    assert left.terms == {(3,): Fraction(2, 3)}
    _assert_canonical(left)


def test_jacobi_trudi_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        sf.jacobi_trudi((2.5, 1))
    with pytest.raises(ValueError, match="2.7 is not an integer"):
        sf.jacobi_trudi_func((2.7, 1))
    with pytest.raises(ValueError):
        sf.jacobi_trudi((Fraction(3, 2),))
    assert sf.jacobi_trudi((2.0, Fraction(1))) == (1, (2, 1))
    assert sf.jacobi_trudi_func((Fraction(2), 1.0)) == sf.schur((2, 1))


def test_jacobi_trudi_examples():
    assert sf.jacobi_trudi((2, 1)) == (1, (2, 1))
    assert sf.jacobi_trudi((0, 2)) == (-1, (1, 1))
    assert sf.jacobi_trudi((0, 1)).sign == 0
    assert sf.jacobi_trudi((-1, 2)) == (-1, (1,))


def _jt_h(seq):
    """Literal determinant expansion of det(h_{a_i + j - i}) in the h basis,
    one permutation at a time: the independent oracle for the h tables."""
    n = len(seq)
    out = {}
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        idx = [seq[i] + perm[i] - i for i in range(n)]
        if any(k < 0 for k in idx):
            continue
        parts = tuple(sorted((k for k in idx if k), reverse=True))
        out[parts] = out.get(parts, 0) + (-1) ** inv
    return sf.SymFunc("h", out)


def _jt_determinant(seq):
    """_jt_h(seq) converted to Schur form through the p basis: the
    independent oracle for straightening."""
    return sf.to_basis(_jt_h(seq), "s")


def test_jacobi_trudi_matches_determinant():
    vals = range(-2, 5)
    seqs = [
        seq
        for length in (1, 2, 3)
        for seq in itertools.product(vals, repeat=length)
    ]
    for seq in seqs:
        sg, shape = sf.jacobi_trudi(seq)
        want = sf.zero() if sg == 0 else sf.scale(sg, sf.schur(shape))
        assert _jt_determinant(seq) == want, seq


def test_mul_pieri_examples():
    assert sf.mul(sf.schur((1,)), sf.schur((1,))) == sf.SymFunc(
        "s", {(2,): 1, (1, 1): 1}
    )
    assert sf.mul(sf.schur((2, 1)), sf.schur((1,))) == sf.SymFunc(
        "s", {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    )


def test_mul_s21_squared():
    want = sf.SymFunc(
        "s",
        {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 3): 1,
            (3, 2, 1): 2,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
        },
    )
    assert sf.mul(sf.schur((2, 1)), sf.schur((2, 1))) == want


def test_mul_two_routes_agree_up_to_8():
    for lam in pt.partitions_upto(8):
        for mu in pt.partitions_upto(8 - sum(lam)):
            via_lr = sf.mul(sf.schur(lam), sf.schur(mu))
            via_p = sf.to_basis(
                sf.mul(sf.to_basis(sf.schur(lam), "p"), sf.to_basis(sf.schur(mu), "p")),
                "s",
            )
            assert via_lr == via_p


def test_lr_tables_pinned_up_to_10():
    # digests of the product and skew tables, terms in table order, over
    # every pair with |lam| + |mu| <= 10, as the tables computed them one
    # lr_coeff at a time over partitions_of
    pairs = [(lam, mu) for lam in pt.partitions_upto(10)
             for mu in pt.partitions_upto(10 - sum(lam))]
    for table, want in (
        (sf._schur_mul_terms,
         "8d9cef76182564db017ff4abd3cb6e98cbfeacae6e51214b062d6a4f9a2b1207"),
        (sf._schur_skew_terms,
         "d7cb1befa6dd24be350755e3f5882d19b14505753113872475e0a9fc2384a229"),
    ):
        rows = [(lam, mu, table(lam, mu)) for lam, mu in pairs]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == want
        # every key is the tuple object that partitions_of holds
        for _lam, _mu, terms in rows:
            for nu, _c in terms:
                assert any(nu is x for x in pt.partitions_of(sum(nu)))


def test_character_tables_pinned_up_to_12():
    # digests of every character row and column of degree <= 12, as
    # (partition, chi) pairs with zeros dropped in partitions_of order, and
    # of every Kronecker table entry of degree <= 8 with its terms sorted,
    # as the tables computed them one dict update per term
    def pairs(keys, vec):
        return tuple((k, c) for k, c in zip(keys, vec) if c)

    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    parts = pt.partitions_upto(12)
    assert digest([(lam, pairs(pt.partitions_of(sum(lam)), sf._character_row(lam)))
                   for lam in parts]) == (
        "9d78fe63357a90fcaec67f6e83dd8e9eb112a299f839fa326221a612af3a71fd")
    assert digest([(rho, pairs(pt.partitions_of(sum(rho)), sf._character_column(rho)))
                   for rho in parts]) == (
        "c78a38fb93af8172cf4412f16460fc542e6d12b3452bbb4c4c59c08029338040")
    assert digest([(lam, mu, sorted(sf._schur_kron_terms(lam, mu)))
                   for n in range(9) for lam in pt.partitions_of(n)
                   for mu in pt.partitions_of(n)]) == (
        "50ec03aee98e08d2f093a7fcb1287889ac14e42bdfc9b98173908cfea99e712f")


def test_character_tables_are_orthogonal_up_to_10():
    # rows: sum_rho chi^lam(rho) chi^mu(rho) n!/z_rho = n! delta_{lam,mu};
    # columns: sum_lam chi^lam(rho) chi^lam(tau) = z_rho delta_{rho,tau}
    for n in range(11):
        parts = pt.partitions_of(n)
        sizes = coeffs.class_sizes(n)
        assert sizes == tuple(math.factorial(n) // pt.z_factor(rho) for rho in parts)
        rows = [sf._character_row(lam) for lam in parts]
        cols = [sf._character_column(rho) for rho in parts]
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                got = sum(x * y * z for x, y, z in zip(a, b, sizes))
                assert got == (math.factorial(n) if i == j else 0), (n, i, j)
        for i, a in enumerate(cols):
            for j, b in enumerate(cols):
                got = sum(x * y for x, y in zip(a, b))
                assert got == (pt.z_factor(parts[i]) if i == j else 0), (n, i, j)


def test_h_and_e_to_schur_are_kostka_numbers_up_to_7():
    # h_lam = sum_nu K_{nu,lam} s_nu and e_lam = sum_nu K_{nu',lam} s_nu,
    # with the Kostka number K_{nu,lam} counted as the SSYT of shape nu
    # and content lam
    for n in range(8):
        for lam in pt.partitions_of(n):
            kostka = {
                nu: len(tb.enumerate_ssyt(pt.SkewShape(nu), lam))
                for nu in pt.partitions_of(n)
            }
            assert sf.to_basis(sf.h(lam), "s") == sf.SymFunc("s", kostka), lam
            dual = {pt.conjugate(nu): k for nu, k in kostka.items()}
            assert sf.to_basis(sf.e(lam), "s") == sf.SymFunc("s", dual), lam


def test_pieri_product_and_skew_of_a_large_shape_are_fast():
    # the tables enumerate LR fillings, not the p(74) partitions of the
    # answer's degree
    assert sf._schur_skew_terms((45, 30), (1,)) == (((45, 29), 1), ((44, 30), 1))
    start = time.monotonic()
    got = sf.mul(sf.schur((45, 30)), sf.schur((1,)))
    assert time.monotonic() - start < 1
    assert got == sf.SymFunc("s", {(46, 30): 1, (45, 31): 1, (45, 30, 1): 1})


def test_hall_inner_examples():
    assert sf.hall_inner(sf.schur((2, 1)), sf.schur((2, 1))) == 1
    assert sf.hall_inner(sf.schur((2, 1)), sf.schur((3,))) == 0
    assert sf.hall_inner(sf.p((2, 1)), sf.p((2, 1))) == 2


def test_to_basis_examples():
    assert sf.to_basis(sf.schur((1, 1)), "p") == sf.SymFunc(
        "p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    )
    assert sf.to_basis(sf.h(2), "s") == sf.schur((2,))
    assert sf.to_basis(sf.p(1), "s") == sf.schur((1,))
    assert sf.to_basis(sf.e(3), "s") == sf.schur((1, 1, 1))


def test_basis_round_trips_up_to_8():
    for lam in pt.partitions_upto(8):
        f = sf.schur(lam)
        for basis in ("h", "e", "p"):
            assert sf.to_basis(sf.to_basis(f, basis), "s") == f


def test_h_and_e_round_trips_at_degrees_9_and_10():
    # to_basis(., "s") from h and e multiplies out one-row (one-column)
    # Schur functions through the product table
    for n in (9, 10):
        for lam in pt.partitions_of(n):
            f = sf.schur(lam)
            for basis in ("h", "e"):
                assert sf.to_basis(sf.to_basis(f, basis), "s") == f, (lam, basis)


def test_schur_to_h_matches_the_permutation_expansion_up_to_7():
    for lam in pt.partitions_upto(7):
        assert sf.to_basis(sf.schur(lam), "h") == _jt_h(lam), lam


def test_one_column_and_one_row_closed_forms_up_to_16():
    # s_{1^n} = e_n = sum_mu (-1)^{n-l(mu)} l(mu)!/prod_i m_i(mu)! h_mu, and
    # s_{(n)} = h_n has the same expansion in e
    for n in range(17):
        want = {}
        for mu in pt.partitions_of(n):
            coef = math.factorial(len(mu))
            for part in set(mu):
                coef //= math.factorial(mu.count(part))
            want[mu] = -coef if (n - len(mu)) % 2 else coef
        assert sf.to_basis(sf.schur((1,) * n), "h") == sf.SymFunc("h", want), n
        assert sf.to_basis(sf.schur((n,)), "e") == sf.SymFunc("e", want), n


def test_schur_to_h_tables_pinned_up_to_10():
    # digest of the sorted h-expansion of every s_lam, |lam| <= 10, as the
    # expansion of det(h_{lam_i+j-i}) over permutations computes it
    rows = [(lam, sorted(sf._schur_to_h(lam))) for lam in pt.partitions_upto(10)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "5bfc3ca32487df4c6e6c0055f00e2bbeb7ae710144b9eeb9a3a902468b1b6fa2"
    )


def test_kronecker_examples():
    assert sf.kronecker(sf.schur((3,)), sf.schur((2, 1))) == sf.schur((2, 1))
    assert sf.kronecker(sf.schur((1, 1)), sf.schur((1, 1))) == sf.schur((2,))
    want = sf.SymFunc("s", {(3,): 1, (2, 1): 1, (1, 1, 1): 1})
    assert sf.kronecker(sf.schur((2, 1)), sf.schur((2, 1))) == want
    assert sf.kronecker(sf.p((2,)), sf.p((1, 1))).is_zero()


def test_kronecker_commutative_and_unital_up_to_7():
    for n in range(8):
        for lam in pt.partitions_of(n):
            g = sf.schur(lam)
            assert sf.kronecker(sf.schur((n,)), g) == g
            for mu in pt.partitions_of(n):
                assert sf.kronecker(g, sf.schur(mu)) == sf.kronecker(
                    sf.schur(mu), g
                )


def test_kronecker_sign_twist_up_to_7():
    for n in range(1, 8):
        column = sf.schur((1,) * n)
        for lam in pt.partitions_of(n):
            assert sf.kronecker(column, sf.schur(lam)) == sf.schur(
                pt.conjugate(lam)
            )


def test_kron_self_adjoint_up_to_6():
    for n in range(7):
        parts = pt.partitions_of(n)
        for f in parts:
            sfn = sf.schur(f)
            for u in parts:
                for v in parts:
                    lhs = sf.hall_inner(sf.kronecker(sfn, sf.schur(u)), sf.schur(v))
                    rhs = sf.hall_inner(sf.schur(u), sf.kronecker(sfn, sf.schur(v)))
                    assert lhs == rhs


def test_skew_examples():
    assert sf.skew(sf.schur((2, 1)), sf.one()) == sf.schur((2, 1))
    assert sf.skew(sf.schur((2, 1)), sf.schur((1,))) == sf.SymFunc(
        "s", {(2,): 1, (1, 1): 1}
    )
    # skewing a skew function by one box sums over added inner cells
    lhs = sf.skew(sf.skew_schur((2, 1), (1,)), sf.schur((1,)))
    rhs = sf.add(sf.skew_schur((2, 1), (2,)), sf.skew_schur((2, 1), (1, 1)))
    assert lhs == rhs == sf.scale(2, sf.schur((1,)))


def test_skew_adjoint_to_mul_up_to_5():
    for mu in pt.partitions_upto(5):
        smu = sf.schur(mu)
        for u in pt.partitions_upto(5):
            su = sf.schur(u)
            for v in pt.partitions_upto(5):
                sv = sf.schur(v)
                assert sf.hall_inner(sf.mul(smu, su), sv) == sf.hall_inner(
                    su, sf.skew(sv, smu)
                )


# rational operands: a sum of basis elements with denominators 2, 3 and 7
_F = sf.SymFunc("s", {(2, 1): Fraction(1, 2), (3,): Fraction(-2, 3), (1,): 1})
_G = sf.SymFunc("s", {(1, 1): Fraction(3, 7), (2,): Fraction(-2, 3),
                      (2, 1): Fraction(5, 2)})


def _integral_parts(f):
    """f as (c, F) with F integral: c is 1 over the lcm of the
    denominators."""
    d = math.lcm(*(c.denominator for c in f.terms.values()))
    return Fraction(1, d), sf.scale(d, f)


def _p_route_kronecker(f, g):
    """The Kronecker product through p_rho * p_sigma = delta z_rho p_rho."""
    a, b = sf.to_basis(f, "p").terms, sf.to_basis(g, "p").terms
    return sf.to_basis(
        sf.SymFunc("p", {rho: c * b[rho] * pt.z_factor(rho)
                         for rho, c in a.items() if rho in b}),
        "s",
    )


def test_rational_products_scale_the_integral_product():
    for f, g in ((_F, _G), (_G, _F), (_F, _F), (sf.scale(Fraction(1, 6), _F), _G)):
        cf, fi = _integral_parts(f)
        cg, gi = _integral_parts(g)
        assert all(c.denominator == 1 for c in fi.terms.values())
        for op in (sf.mul, sf.kronecker, sf.skew):
            got = op(f, g)
            _assert_canonical(got)
            assert got == sf.scale(cf * cg, op(fi, gi))
        # independent routes: the p basis for the two products, and skewing
        # as the adjoint of multiplication under the Hall inner product
        via_p = sf.to_basis(sf.mul(sf.to_basis(f, "p"), sf.to_basis(g, "p")), "s")
        assert sf.mul(f, g) == via_p
        assert sf.kronecker(f, g) == _p_route_kronecker(f, g)
        skewed = sf.skew(f, g)
        for nu in pt.partitions_upto(3):
            s_nu = sf.schur(nu)
            assert sf.hall_inner(skewed, s_nu) == sf.hall_inner(f, sf.mul(g, s_nu))


def test_round_trips_of_p_inputs_with_inverse_z_coefficients():
    for n in range(6):
        # sum_rho p_rho / z_rho = h_n and sum_rho sign(rho) p_rho / z_rho = e_n
        h_n = sf.SymFunc("p", {rho: Fraction(1, pt.z_factor(rho))
                               for rho in pt.partitions_of(n)})
        e_n = sf.SymFunc("p", {rho: Fraction((-1) ** (n - len(rho)), pt.z_factor(rho))
                               for rho in pt.partitions_of(n)})
        assert sf.to_basis(h_n, "s") == sf.schur((n,))
        assert sf.to_basis(e_n, "s") == sf.schur((1,) * n)
        for f in (h_n, e_n, sf.add(h_n, sf.scale(Fraction(-3, 4), e_n))):
            in_s = sf.to_basis(f, "s")
            _assert_canonical(in_s)
            assert sf.to_basis(in_s, "p").terms == f.terms
            for basis in "he":
                there = sf.to_basis(in_s, basis)
                _assert_canonical(there)
                assert sf.to_basis(there, "s").terms == in_s.terms
                assert sf.to_basis(there, "p").terms == f.terms


def test_kronecker_table_rejects_a_non_integral_character_sum(monkeypatch):
    # character table rows with the class (1, 1) dropped make
    # sum_rho chi chi chi / z_rho equal to 1/2 for s_2 * s_2
    monkeypatch.setattr(sf, "_character_row", lambda lam: (1, 0))
    with pytest.raises(ValueError, match="non-integral"):
        sf._schur_kron_terms.__wrapped__((2,), (2,))


def test_skew_schur_examples():
    assert sf.skew_schur((2, 1), ()) == sf.schur((2, 1))
    assert sf.skew_schur((2, 1), (1,)) == sf.SymFunc("s", {(2,): 1, (1, 1): 1})
    assert sf.skew_schur((3, 1), (1,)) == sf.SymFunc("s", {(3,): 1, (2, 1): 1})
    assert sf.skew_schur((2,), (3,)).is_zero()


def test_shift_minus_one():
    for k in range(1, 5):
        assert sf.shift_minus_one(sf.p(k)) == sf.to_basis(
            sf.SymFunc("p", {(k,): 1, (): -1}), "s"
        )
    assert sf.shift_minus_one(sf.h(2)) == sf.to_basis(
        sf.add(sf.h(2), sf.scale(-1, sf.h(1))), "s"
    )
    assert sf.shift_minus_one(sf.one()) == sf.one()


def test_gamma1_component():
    for n in range(5):
        assert sf.gamma1_component(sf.one(), n) == sf.schur((n,))
    assert sf.gamma1_component(sf.schur((1,)), 2) == sf.schur((1, 1))


def test_gamma1_matches_straightening():
    for lam in pt.partitions_upto(4):
        for n in range(9):
            sg, shape = sf.jacobi_trudi((n - sum(lam),) + lam)
            want = sf.zero() if sg == 0 else sf.scale(sg, sf.schur(shape))
            assert sf.gamma1_component(sf.schur(lam), n) == want, (lam, n)


def test_render_and_json():
    f = sf.SymFunc("s", {(2,): Fraction(-1, 2), (1, 1): 3, (): 1})
    assert sf.render(f) == "s[0] - 1/2*s[2] + 3*s[1,1]"
    assert sf.from_json(sf.to_json(f)) == f
    assert sf.render(sf.zero()) == "0"
    blob = sf.to_json(f)
    assert blob["basis"] == "s"
    assert blob["terms"][0] == {"part": [], "coef": "1"}


def test_homogeneous_components():
    f = sf.add(sf.schur((2,)), sf.schur((1,)))
    assert f.degrees() == [1, 2]
    assert f.homogeneous_component(2) == sf.schur((2,))
    assert f.homogeneous_component(5).is_zero()


def _assert_canonical(f):
    """The invariants the public constructor establishes: canonical keys,
    nonzero int numerators over the least denominator, and a terms view
    that agrees with them."""
    for k, c in f.terms.items():
        assert type(k) is tuple and k == pt.make_partition(k)
        assert type(c) is Fraction and c != 0
        assert type(f._num[k]) is int and c == Fraction(f._num[k], f._d)
    assert f.terms.keys() == f._num.keys()
    assert f._d > 0 and math.gcd(f._d, *f._num.values()) == 1
    assert sf.SymFunc(f.basis, f.terms).terms == f.terms


def test_internal_results_keep_public_invariants():
    small = pt.partitions_upto(5)
    mixed = sf.linear_combination(
        (Fraction(k % 5 - 2, k % 3 + 1), sf.schur(lam)) for k, lam in enumerate(small)
    )
    _assert_canonical(mixed)
    for n in range(7):
        _assert_canonical(mixed.homogeneous_component(n))
    for lam in small:
        s_lam = sf.schur(lam)
        for basis in "hep":
            there = sf.to_basis(s_lam, basis)
            assert there.basis == basis
            _assert_canonical(there)
            _assert_canonical(sf.to_basis(there, "s"))
            gen = getattr(sf, basis)(lam)
            _assert_canonical(sf.mul(gen, gen))
        _assert_canonical(sf.linear_combination([(2, s_lam), (-1, sf.h(lam))]))
        for mu in small:
            s_mu = sf.schur(mu)
            _assert_canonical(sf.mul(s_lam, s_mu))
            _assert_canonical(sf.kronecker(s_lam, s_mu))
            _assert_canonical(sf.skew(s_lam, s_mu))
            _assert_canonical(sf.skew_schur(lam, mu))
            if pt.contains(mu, lam):
                _assert_canonical(sf.skew_schur(pt.SkewShape(lam, mu)))
    # sums that cancel drop the zero coefficients
    _assert_canonical(sf.add(mixed, sf.scale(-1, mixed.homogeneous_component(3))))
    _assert_canonical(sf.scale(0, mixed))


def test_terms_is_a_read_only_view():
    f = sf.SymFunc("s", {(2, 1): Fraction(1, 2), (3,): 1})
    with pytest.raises(TypeError):
        f.terms[(2, 1)] = 1
    with pytest.raises(TypeError):
        f.terms[(1,)] = 1
    with pytest.raises(AttributeError):
        f.terms = {}
    assert f.terms == {(2, 1): Fraction(1, 2), (3,): 1}
    assert f.terms is f.terms


def test_one_least_denominator():
    f = sf.SymFunc._trusted("s", {(2,): 2, (1, 1): 4}, 6)
    assert f._d == 3 and f._num == {(2,): 1, (1, 1): 2}
    assert f == sf.SymFunc("s", {(2,): Fraction(1, 3), (1, 1): Fraction(2, 3)})
    _assert_canonical(f)
    public = sf.SymFunc("s", {(2,): Fraction(1, 4), (1,): Fraction(5, 6), (): 3})
    assert public._d == 12 and public._num == {(2,): 3, (1,): 10, (): 36}
    _assert_canonical(public)
    # zero, and sums that cancel, sit over 1
    assert sf.zero()._d == 1 and sf.zero("p")._d == 1
    assert sf.SymFunc("h", {(1,): Fraction(1, 2), (2,): 0})._d == 2
    half = sf.scale(Fraction(1, 2), sf.schur((2, 1)))
    cancelled = sf.add(half, sf.scale(Fraction(-1, 2), sf.schur((2, 1))))
    assert cancelled.is_zero() and cancelled._d == 1
    # halves that add up to integers drop the denominator
    whole = sf.add(half, half)
    assert whole._d == 1 and whole == sf.schur((2, 1))
    assert sf.scale(0, public)._d == 1
    assert sf.linear_combination([(Fraction(1, 3), public), (Fraction(-1, 3), public)])._d == 1


def test_equality_across_bases():
    f = sf.SymFunc("p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2), (3,): Fraction(2, 3)})
    in_s = sf.to_basis(f, "s")
    assert f == in_s and in_s == f
    assert f != sf.add(in_s, sf.schur((1,)))
    for basis in "he":
        assert sf.to_basis(f, basis) == f


def test_public_constructors_still_validate():
    for terms in ({(1, 2): 1}, {(2, -1): 1}, {(2.5,): 1}):
        with pytest.raises(ValueError):
            sf.SymFunc("s", terms)
    with pytest.raises(ValueError):
        sf.SymFunc("x")
    with pytest.raises(ValueError, match="2.9 is not an integer"):
        sf.schur((2.9,))
    with pytest.raises(ValueError):
        sf.from_json({"basis": "s", "terms": [{"part": [1, 2], "coef": "1"}]})
    with pytest.raises(ValueError):
        sf.skew_schur((2, 1), (1, 2))
    with pytest.raises(ValueError, match="negative part"):
        pt.make_partition((1, -1, 2))
    # the public constructor still sums repeated keys and drops zeros
    f = sf.SymFunc("s", [((2, 1, 0), 1), ((2, 1), 1), ((1,), 0)])
    assert f.terms == {(2, 1): 2}


def _digest_pairs(count, seed):
    """`count` seeded pairs of SymFuncs in random bases: up to three terms
    of degree <= 4 with small rational coefficients."""
    rng = random.Random(seed)
    parts = pt.partitions_upto(4)

    def operand():
        terms = {
            rng.choice(parts): Fraction(rng.randrange(1, 7) * rng.choice((-1, 1)),
                                        rng.choice((1, 1, 2, 3, 4, 6)))
            for _ in range(rng.randrange(1, 4))
        }
        return sf.SymFunc(rng.choice(sf.BASES), terms)

    return [(operand(), operand(), Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)))
            for _ in range(count)]


def test_mixed_basis_outputs_pinned():
    # every byte that to_json and render print, and every hall_inner and ==
    # result, on seeded rational operands in all four bases
    digest = hashlib.sha256()
    for f, g, c in _digest_pairs(150, 2015):
        outs = [
            sf.mul(f, g), sf.kronecker(f, g), sf.skew(f, g), sf.add(f, g),
            sf.scale(c, f), sf.linear_combination([(c, f), (1, g), (-c, f)]),
            sf.shift_minus_one(f),
        ] + [sf.to_basis(f, b) for b in sf.BASES]
        for out in outs:
            digest.update(json.dumps(sf.to_json(out)).encode())
            digest.update(f"\n{sf.render(out)}\n".encode())
        digest.update(
            f"{sf.hall_inner(f, g)} {f == g} {sf.to_basis(f, 'h') == f}\n".encode()
        )
    assert digest.hexdigest() == (
        "a60e2deb74d17c38bb72b4c78055f562609da01d313f4643091a8fa347902d4f"
    )


def test_float_coefficients_are_refused():
    # a float is already a binary fraction: 0.1 would become
    # 3602879701896397/36028797018963968, so every entry point refuses it
    s1 = sf.schur((1,))
    for build in (
        lambda: 0.1 * s1,
        lambda: s1 * 0.1,
        lambda: sf.scale(0.5, s1),
        lambda: sf.linear_combination([(0.5, s1)]),
        lambda: sf.SymFunc("s", {(1,): 0.1}),
        lambda: sf.SymFunc("p", [((2,), 1), ((1, 1), 2.0)]),
        lambda: sf.from_json({"basis": "s", "terms": [{"part": [1], "coef": 0.1}]}),
    ):
        with pytest.raises(TypeError, match="float"):
            build()
    # ints, Fractions and rational strings are still exact
    tenth = sf.SymFunc("s", {(1,): "1/10"})
    assert tenth.terms == {(1,): Fraction(1, 10)}
    assert sf.render(tenth) == "1/10*s[1]"
    assert sf.scale("1/10", s1) == tenth == Fraction(1, 10) * s1
    assert sf.from_json(sf.to_json(tenth)) == tenth
    assert sf.linear_combination([("-1/5", s1), (Fraction(3, 10), s1)]) == tenth
    assert 3 * s1 == sf.SymFunc("s", {(1,): 3}) == sf.SymFunc("s", {(1,): True + 2})
