"""Property tests that pit independent routes against each other on random
sums with rational coefficients, at degree <= 5, on random operator words
at domain degree <= 4, and on random small skew shapes and tableaux."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from symop import coeffs, operators as op, partitions as pt, symfunc as sf
from symop import tableaux as tb
from symop.partitions import SkewShape

from test_operators import _fraction_rank

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


def operator_sums():
    """A sum of up to two scaled words of up to two U/D/K/KB generators,
    each generator taking a random s/p/h sum of degree <= 2."""
    generators = st.tuples(
        st.sampled_from(("U", "D", "K", "KB")), sums("sph", max_degree=2)
    )
    words = st.lists(generators, max_size=2).map(tuple)
    return st.lists(st.tuples(coefficients, words), min_size=1, max_size=2).map(
        op.OperatorExpr
    )


ONE = sf.schur((1,))
# DU - UD - Id = 0, so these three are dependent
DEPENDENT = [op.U(ONE) * op.D(ONE), op.D(ONE) * op.U(ONE), op.identity_op()]
# images vanish on degree < 2, or everywhere
KILLERS = [op.D(sf.p((2,))), op.K(sf.p((2,))) * op.U(sf.p((1,)))]


@st.composite
def word_lists(draw):
    exprs = draw(st.lists(operator_sums(), min_size=1, max_size=3))
    if draw(st.booleans()):
        exprs.append(draw(coefficients | st.just(1)) * draw(st.sampled_from(exprs)))
    if draw(st.booleans()):
        exprs += DEPENDENT
    exprs += draw(st.lists(st.sampled_from(KILLERS), max_size=2))
    return exprs


@PROPERTY
@given(word_lists(), st.integers(0, 4))
def test_stacked_rank_matches_dense_reference(exprs, n):
    cod = n + max(max(0, e.max_degree_shift()) for e in exprs)
    vectors = [
        [x for row in op.matrix_of(e, n, cod).entries for x in row] for e in exprs
    ]
    assert op.stacked_rank(exprs, n) == _fraction_rank(vectors)


@PROPERTY
@given(sums(max_degree=3), sums(max_degree=4), st.integers(0, 1))
def test_kb_three_routes_agree(f, g, extra):
    # straightening, the vertex operator sigma[X] f[X-1], and the expansion
    # in U and D, which is exact on inputs of degree <= m
    m = g.max_degree() + extra
    want = op.apply_KB(f, g)
    assert op.kb_via_gamma(f, g) == want
    assert op.kb_as_UD(f, m).apply(g) == want


def _generator_by_generator(expr, g):
    """expr(g) by the public products, one generator at a time."""
    images = []
    for coef, word in expr.words:
        value = g
        for kind, f in reversed(word):
            if kind == "U":
                value = sf.mul(f, value)
            elif kind == "D":
                value = sf.skew(value, f)
            elif kind == "K":
                value = sf.kronecker(f, value)
            else:
                value = op.apply_KB(f, value)
        images.append((coef, value))
    return sf.linear_combination(images)


@PROPERTY
@given(st.lists(operator_sums(), min_size=1, max_size=3), sums(max_degree=3),
       st.sampled_from((1, 2, Fraction(-1, 3))))
def test_apply_and_disagreements_match_generator_by_generator(exprs, g, scale):
    # operator_sums covers Fraction coefficients, the identity (empty)
    # word, multi-term s/p/h generators with mixed denominators and all
    # four kinds; exprs[1] is exprs[0] plus a zero operator with other
    # words (w (DU - UD - Id)), so it agrees with it everywhere
    zero = exprs[-1] * (DEPENDENT[1] - DEPENDENT[0] - DEPENDENT[2])
    exprs = [exprs[0], exprs[0] + scale * zero] + exprs[1:]
    for e in exprs:
        want = _generator_by_generator(e, g)
        assert sf.to_json(e.apply(g)) == sf.to_json(want)
    gammas = pt.partitions_upto(3)
    want = []
    for gamma in gammas:
        images = [_generator_by_generator(e, sf.schur(gamma)) for e in exprs]
        bad = [k for k in range(1, len(exprs)) if images[k] != images[0]]
        if bad:
            want.append((gamma, bad[0]))
    assert op.disagreements(exprs, gammas) == want
    assert all(k >= 2 for _gamma, k in want)


@st.composite
def skew_shapes(draw, max_outer):
    """A skew shape outer/inner with |outer| <= max_outer."""
    outer = draw(st.sampled_from(pt.partitions_upto(max_outer)))
    return SkewShape(outer, draw(st.sampled_from(pt.sub_partitions(outer))))


@PROPERTY
@given(skew_shapes(4), skew_shapes(4))
def test_skew_lr_product_matches_the_direct_product(a, b):
    assert tb.skew_lr_product(a, b) == sf.mul(sf.skew_schur(a), sf.skew_schur(b))


@PROPERTY
@given(skew_shapes(6), st.integers(1, 4), st.data())
def test_jdt_slides_are_mutually_inverse(shape, max_entry, data):
    # a forward slide from an inner corner, or a reverse slide from an
    # outer addable cell, is undone by the slide from the vacated cell
    tableaux = list(tb.enumerate_ssyt_bounded(shape, max_entry))
    if not tableaux:
        return
    t = data.draw(st.sampled_from(tableaux))
    for hole in pt.corners(shape.inner) + pt.addable_cells(shape.outer):
        t2, vacated = tb.jdt_slide(t, hole)
        if vacated is not None:
            assert tb.jdt_slide(t2, vacated) == (t, hole)
