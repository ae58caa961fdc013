"""Property tests that pit independent routes against each other on random
sums with rational coefficients, at degree <= 5."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from symop import coeffs, partitions as pt, symfunc as sf

PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(
    bool
)


def sums(bases="sehp", max_degree=5):
    """A SymFunc in one of `bases`: up to four terms of degree <= max_degree."""
    partitions = st.sampled_from(pt.partitions_upto(max_degree))
    return st.builds(
        sf.SymFunc,
        st.sampled_from(bases),
        st.dictionaries(partitions, coefficients, max_size=4),
    )


@PROPERTY
@given(sums(), st.sampled_from("sehp"))
def test_round_trip_through_any_basis(f, basis):
    there = sf.to_basis(f, basis)
    assert there.basis == basis
    assert sf.to_basis(there, f.basis).terms == f.terms


@PROPERTY
@given(sums(max_degree=3), sums(max_degree=3))
def test_mul_matches_the_product_through_p(f, g):
    via_p = sf.mul(sf.to_basis(f, "p"), sf.to_basis(g, "p"))
    assert sf.to_basis(sf.mul(f, g), "s").terms == sf.to_basis(via_p, "s").terms


@PROPERTY
@given(sums("s"), sums("s"))
def test_kronecker_matches_kron_coeff(f, g):
    want = {}
    for lam, a in f.terms.items():
        for mu, b in g.terms.items():
            if sum(lam) != sum(mu):
                continue
            for nu in pt.partitions_of(sum(lam)):
                want[nu] = want.get(nu, Fraction(0)) + a * b * coeffs.kron_coeff(
                    lam, mu, nu
                )
    assert sf.kronecker(f, g).terms == {nu: c for nu, c in want.items() if c}
