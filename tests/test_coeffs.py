import math

import pytest

from symop import coeffs, partitions as pt, symfunc as sf


def test_trivial_character_is_one():
    for n in range(1, 7):
        for rho in pt.partitions_of(n):
            assert coeffs.mn_character((n,), rho) == 1


def test_character_examples():
    # number of standard tableaux of shape (2,1)
    assert coeffs.mn_character((2, 1), (1, 1, 1)) == 2
    # sign character at a transposition
    assert coeffs.mn_character((1, 1), (2,)) == -1


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        coeffs.mn_character((2, 1), (2,))


def test_column_orthogonality_up_to_6():
    for n in range(7):
        classes = pt.partitions_of(n)
        for rho in classes:
            for tau in classes:
                total = sum(
                    coeffs.mn_character(lam, rho) * coeffs.mn_character(lam, tau)
                    for lam in classes
                )
                assert total == (pt.z_factor(rho) if rho == tau else 0)


def test_character_at_the_identity_is_the_hook_length_count_up_to_12():
    # chi^lam(1^n) = f^lam = n! / prod of the hook lengths of lam
    for n in range(13):
        for lam in pt.partitions_of(n):
            conj = pt.conjugate(lam)
            hooks = 1
            for i, row in enumerate(lam):
                for j in range(row):
                    hooks *= (row - j) + (conj[j] - i) - 1
            assert coeffs.mn_character(lam, (1,) * n) == math.factorial(n) // hooks, lam


def test_lr_examples():
    for lam in pt.partitions_of(4):
        assert coeffs.lr_coeff(lam, (), lam) == 1
    assert coeffs.lr_coeff((2, 1), (1,), (1, 1)) == 1
    assert coeffs.lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2
    assert coeffs.lr_coeff((3, 1), (1,), (1,)) == 0  # size mismatch
    assert coeffs.lr_coeff((2, 2), (3,), (1,)) == 0  # not contained


def test_lr_symmetry_and_conjugation_up_to_6():
    for n in range(7):
        for nu in pt.partitions_of(n):
            for a in range(n + 1):
                for lam in pt.partitions_of(a):
                    for mu in pt.partitions_of(n - a):
                        c = coeffs.lr_coeff(nu, lam, mu)
                        assert c == coeffs.lr_coeff(nu, mu, lam)
                        assert c == coeffs.lr_coeff(
                            pt.conjugate(nu), pt.conjugate(lam), pt.conjugate(mu)
                        )


def test_kron_trivial_row_is_unit():
    for n in range(1, 6):
        for mu in pt.partitions_of(n):
            for nu in pt.partitions_of(n):
                want = 1 if mu == nu else 0
                assert coeffs.kron_coeff((n,), mu, nu) == want


def test_kron_examples():
    assert coeffs.kron_coeff((2, 1), (2, 1), (2, 1)) == 1
    assert coeffs.kron_coeff((1, 1), (1, 1), (2,)) == 1
    # lists and trailing zeros are validated before the memo
    assert coeffs.kron_coeff([2, 1], [2, 1], [2, 1]) == 1
    assert coeffs.kron_coeff((2, 1, 0), [2, 1], (1, 1, 1)) == 1
    with pytest.raises(ValueError, match="not weakly decreasing"):
        coeffs.kron_coeff([1, 2], [2, 1], [2, 1])


def test_kron_size_mismatch():
    with pytest.raises(ValueError):
        coeffs.kron_coeff((2,), (1,), (2,))


def test_kron_symmetry():
    import itertools

    for lam, mu, nu in ((2, 1), (1, 1, 1), (3,)), ((2, 2), (3, 1), (2, 1, 1)):
        vals = {
            coeffs.kron_coeff(*perm)
            for perm in itertools.permutations((lam, mu, nu))
        }
        assert len(vals) == 1


def test_kron_matches_symfunc_kronecker_up_to_6():
    for n in range(7):
        parts = pt.partitions_of(n)
        for lam in parts:
            for mu in parts:
                prod = sf.kronecker(sf.schur(lam), sf.schur(mu))
                for nu in parts:
                    assert coeffs.kron_coeff(lam, mu, nu) == prod.coeff(nu)


def test_lr_matches_skew_schur_up_to_6():
    for n in range(7):
        for nu in pt.partitions_of(n):
            for lam in pt.sub_partitions(nu):
                expansion = sf.skew_schur(nu, lam)
                for mu in pt.partitions_of(n - sum(lam)):
                    assert coeffs.lr_coeff(nu, lam, mu) == expansion.coeff(mu)


def test_lr_coeff_validates_each_spelling_but_not_interned_partitions(monkeypatch):
    assert coeffs.lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2
    # non-canonical and unhashable spellings of the same arguments
    assert coeffs.lr_coeff([3, 2, 1], [2, 1], (2, 1)) == 2
    assert coeffs.lr_coeff((3, 2, 1, 0), (2, 1), (2.0, 1)) == 2
    for bad in (((1, 2), (1,), (1,)), ((2,), (1,), (1, -1)),
                ((2.5,), (1,), (1,)), ([1, 2], [1], [1])):
        with pytest.raises(ValueError):
            coeffs.lr_coeff(*bad)
    calls = []
    real = pt.make_partition
    monkeypatch.setattr(pt, "make_partition", lambda p: calls.append(p) or real(p))
    # the split tables of the catalog pass the interned tuples of
    # partitions_of, which are not validated again
    nu = next(x for x in pt.partitions_of(6) if x == (3, 2, 1))
    lam = next(x for x in pt.partitions_of(3) if x == (2, 1))
    assert coeffs.lr_coeff(nu, lam, lam) == 2
    assert calls == []
    assert coeffs.lr_coeff([3, 2, 1], [2, 1], [2, 1]) == 2
    assert len(calls) == 3


def test_mn_character_recursive_miss_skips_validation_and_input_is_still_checked(
    monkeypatch,
):
    coeffs._CHARACTERS.clear()
    calls = []
    real = pt.make_partition
    monkeypatch.setattr(pt, "make_partition", lambda p: calls.append(p) or real(p))
    # fresh spellings of both arguments are validated; every pair below
    # them is an interned partition and validates nothing
    lam, rho = tuple([4, 3, 1, 1, 1, 0]), tuple([3, 2, 1, 1, 1, 1, 1])
    assert coeffs.mn_character(lam, rho) == 10
    assert len(coeffs._CHARACTERS) > 2
    assert calls == [lam, rho]
    # lists are validated before the memo too
    assert coeffs.mn_character(list(lam), list(rho)) == 10
    assert calls == [lam, rho, list(lam), list(rho)]
    for bad, message in (
        (((1, 2), (2, 1)), r"not weakly decreasing: \(1, 2\)"),
        (((2,), (3, -1)), r"negative part in \(3, -1\)"),
        (((2.5,), (2,)), "2.5 is not an integer"),
        (((2,), (1,)), r"size mismatch: \|\(2,\)\| != \|\(1,\)\|"),
        (((2, 1), (1, 1, 0.0, 1)), r"not weakly decreasing: \(1, 1, 0, 1\)"),
    ):
        with pytest.raises(ValueError, match=message):
            coeffs.mn_character(*bad)


def test_characters_at_single_boxes_memoize_no_strips():
    # rho = 1^46 strips only corners, which are read off each shape
    coeffs._strips.cache_clear()
    coeffs._CHARACTERS.clear()
    lam = (9, 8, 7, 6, 5, 4, 3, 2, 1, 1)
    hooks = math.prod(
        lam[i] - j + sum(1 for x in lam[i + 1:] if x > j)
        for i in range(len(lam)) for j in range(lam[i])
    )
    value = coeffs.mn_character(lam, (1,) * 46)
    assert value == math.factorial(46) // hooks == 2329440559042398325938585600
    assert coeffs._strips.cache_info().currsize == 0
    for lam in pt.partitions_upto(8):
        assert coeffs._corners(lam) == list(coeffs._strips(lam, 1))
