import hashlib
import json
import random
from fractions import Fraction

import pytest

from symop import cli, operators as op, partitions as pt, symfunc as sf


def test_apply_examples():
    s21 = sf.schur((2, 1))
    ud = op.U(sf.schur((1,))) * op.D(sf.schur((1,)))
    du = op.D(sf.schur((1,))) * op.U(sf.schur((1,)))
    want = sf.SymFunc("s", {(2, 1): 2, (3,): 1, (1, 1, 1): 1})
    assert ud.apply(s21) == want
    assert du.apply(s21) == sf.add(ud.apply(s21), s21)
    assert op.identity_op().apply(s21) == s21


def test_single_unit_word_is_schur_expanded():
    # one word with coefficient 1 on an input in the p basis still comes
    # back in the s basis
    word = op.U(sf.schur((1,))) * op.D(sf.schur((1,))) * op.K(sf.schur((2, 1)))
    g = sf.to_basis(sf.schur((2, 1)), "p")
    got = word.apply(g)
    assert not got.is_zero()
    assert got.basis == "s"
    twice = sf.scale(Fraction(1, 2), (2 * word).apply(g))
    assert sf.to_json(got) == sf.to_json(twice)
    assert op.identity_op().apply(g) == sf.to_basis(g, "s")
    assert op.identity_op().apply(g).basis == "s"


def test_operator_algebra():
    a = op.U(sf.schur((1,)))
    f = sf.schur((2,))
    assert (2 * a).apply(f) == sf.scale(2, a.apply(f))
    assert (a - a).apply(f).is_zero()
    assert (a * op.zero_op()).apply(f).is_zero()
    assert op.U(sf.zero()).apply(f).is_zero()


def test_apply_KB_examples():
    for n in range(5):
        for lam in pt.partitions_of(n):
            g = sf.schur(lam)
            assert op.apply_KB(sf.one(), g) == g
    assert op.apply_KB(sf.schur((1,)), sf.schur((2,))) == sf.schur((1, 1))
    assert op.apply_KB(sf.schur((2,)), sf.schur((1,))) == sf.scale(
        -1, sf.schur((1,))
    )


def test_apply_KB_inhomogeneous_and_linear():
    f = sf.schur((1,))
    g = sf.add(sf.schur((2,)), sf.schur((1,)))
    assert op.apply_KB(f, g) == sf.add(
        op.apply_KB(f, sf.schur((2,))), op.apply_KB(f, sf.schur((1,)))
    )


def test_kb_via_gamma_examples():
    for n in range(4):
        for lam in pt.partitions_of(n):
            g = sf.schur(lam)
            assert op.kb_via_gamma(sf.one(), g) == g
    assert op.kb_via_gamma(sf.schur((1,)), sf.schur((2, 1))) == op.apply_KB(
        sf.schur((1,)), sf.schur((2, 1))
    )
    assert op.kb_via_gamma(sf.schur((2,)), sf.schur((1,))) == sf.scale(
        -1, sf.schur((1,))
    )


def test_kb_as_UD_one_box():
    expr = op.kb_as_UD(sf.schur((1,)), 4)
    direct = op.U(sf.schur((1,))) * op.D(sf.schur((1,))) - op.identity_op()
    for gamma in pt.partitions_upto(4):
        g = sf.schur(gamma)
        assert expr.apply(g) == direct.apply(g)


def test_kb_as_UD_row_two():
    expr = op.kb_as_UD(sf.h(2), 4)
    direct = op.zero_op()
    for lam in pt.partitions_of(2):
        direct = direct + op.U(sf.schur(lam)) * op.D(sf.schur(lam))
    direct = direct - op.U(sf.schur((1,))) * op.D(sf.schur((1,)))
    for gamma in pt.partitions_upto(4):
        g = sf.schur(gamma)
        assert expr.apply(g) == direct.apply(g)


def test_kb_as_UD_trivial():
    expr = op.kb_as_UD(sf.one(), 3)
    assert len(expr.words) == 1
    for gamma in pt.partitions_upto(3):
        assert expr.apply(sf.schur(gamma)) == sf.schur(gamma)


def test_kb_three_way_agreement_small():
    for lam in pt.partitions_upto(3):
        f = sf.schur(lam)
        expr = op.kb_as_UD(f, 4)
        for gamma in pt.partitions_upto(4):
            g = sf.schur(gamma)
            a = op.apply_KB(f, g)
            assert a == op.kb_via_gamma(f, g)
            assert a == expr.apply(g)


def test_kb_table_matches_vertex_operator_route():
    # all 469 KB table entries the catalog reads at bounds (3, 5), against the
    # vertex operator sigma[X] f[X-1], which never reads the table
    for lam in pt.partitions_upto(3):
        f = sf.schur(lam)
        for mu in pt.partitions_upto(8):
            g = sf.schur(mu)
            assert op.apply_KB(f, g) == op.kb_via_gamma(f, g), (lam, mu)


def test_float_coefficients_are_refused():
    u = op.U((1,))
    for build in (
        lambda: 0.1 * u,
        lambda: u * 0.1,
        lambda: op.OperatorExpr([(0.5, (("U", sf.schur((1,))),))]),
        lambda: -0.5 * (u - op.identity_op()),
    ):
        with pytest.raises(TypeError, match="float"):
            build()
    # ints, Fractions and rational strings are still exact
    g = sf.schur((2,))
    tenth = sf.SymFunc("s", {(3,): "1/10", (2, 1): "1/10"})
    assert ("1/10" * u).apply(g) == tenth
    assert (Fraction(1, 10) * u).apply(g) == tenth
    assert op.OperatorExpr([("1/10", u.words[0][1])]).apply(g) == tenth
    assert (u * 10).apply(tenth) == sf.mul(sf.schur((1,)), sf.scale(10, tenth))


def test_matrix_identity():
    m = op.matrix_of(op.identity_op(), 3)
    assert m.cols == m.rows
    for i in range(len(m.rows)):
        for j in range(len(m.cols)):
            assert m.entries[i][j] == (1 if i == j else 0)


def test_matrix_zero_relation():
    for n in range(1, 4):
        m = op.matrix_of(op.K(sf.p((2,))) * op.U(sf.p((1,))), n)
        assert m.is_zero()


def test_matrix_equal_relation():
    m1 = op.matrix_of(op.D(sf.schur((1,))) * op.K(sf.schur((2,))), 3)
    m2 = op.matrix_of(op.D(sf.schur((1,))) * op.K(sf.schur((1, 1))), 3)
    assert m1 == m2


def test_matrix_entries_and_json():
    m = op.matrix_of(op.U(sf.schur((1,))), 2)
    assert m.entry((1,), ()) == 1
    assert m.entry((2,), (1,)) == 1
    assert m.entry((2, 1), (1, 1)) == 1
    blob = m.to_json()
    assert blob["cols"][0] == [] and blob["entries"]
    assert m.cod_bound == 3


def test_matrix_image_beyond_codomain_raises():
    with pytest.raises(AssertionError, match="image degree 3 exceeds codomain bound 2"):
        op.matrix_of(op.U(sf.schur((1,))), 2, 2)


def test_matrix_json_pinned():
    want = {
        "K(p[2])U(p[1])": "421a864620d018e777dc8a3d7a9df73428d6674cb86b86d955b4147a3162d574",
        "U[2,1]D[1]": "17bc49b955895af27da375874325a0217c6cca3bc4ecf2031bce676fb111ec03",
        "K(p[2])": "f0c56074191984d47f888a6b64699a377cf5d40c76831cb182894ef937fd7965",
        "KB[1]": "d6b8d1f17efab65a3dbccc60cc47c621e9cb50edf1abcab77232dc5e7acb8572",
    }
    for text, digest in want.items():
        blob = json.dumps(op.matrix_of(cli.parse_operator(text), 3).to_json())
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, text


def test_independent_families():
    us = [
        op.U(sf.schur(a)) * op.D(sf.schur(b))
        for a in pt.partitions_upto(2)
        for b in pt.partitions_upto(2)
    ]
    assert op.independent(us, 5)
    ds = [
        op.D(sf.schur(b)) * op.U(sf.schur(a))
        for a in pt.partitions_upto(2)
        for b in pt.partitions_upto(2)
    ]
    assert op.independent(ds, 5)


def test_dependent_family():
    pair = [
        op.K(sf.schur((2,))) * op.U(sf.schur((1,))),
        op.K(sf.schur((1, 1))) * op.U(sf.schur((1,))),
    ]
    for trunc in (2, 3, 4):
        assert not op.independent(pair, trunc)


def test_adjoint_transpose_blocks():
    # the matrix of U(s_mu) is the transpose of the matrix of D(s_mu) on
    # matching degree blocks, |mu| <= 3 and domain bounds N <= 5
    for mu in pt.partitions_upto(3):
        if not mu:
            continue
        for n in range(6):
            up = op.matrix_of(op.U(sf.schur(mu)), n)
            down = op.matrix_of(op.D(sf.schur(mu)), n + sum(mu))
            uix = {p: i for i, p in enumerate(up.rows)}
            dix = {p: i for i, p in enumerate(down.rows)}
            for j, lam in enumerate(up.cols):
                for jj, nu in enumerate(down.cols):
                    assert (
                        up.entries[uix[nu]][j] == down.entries[dix[lam]][jj]
                    )


def test_kron_matrices_symmetric():
    for lam in pt.partitions_upto(4):
        for build in (op.K, op.KB):
            m = op.matrix_of(build(sf.schur(lam)), 4)
            assert m.rows == m.cols
            for i in range(len(m.rows)):
                for j in range(len(m.cols)):
                    assert m.entries[i][j] == m.entries[j][i]


def test_degree_bookkeeping_random():
    rng = random.Random(0)
    shapes = pt.partitions_upto(7)
    for _ in range(40):
        mu = rng.choice([s for s in shapes if s])
        gamma = rng.choice(shapes)
        g = sf.schur(gamma)
        raised = op.U(sf.schur(mu)).apply(g)
        assert raised.degrees() == [sum(gamma) + sum(mu)]
        lowered = op.D(sf.schur(mu)).apply(g)
        assert lowered.is_zero() or lowered.degrees() == [sum(gamma) - sum(mu)]
        for build in (op.K, op.KB):
            kept = build(sf.schur(mu)).apply(g)
            assert kept.is_zero() or kept.degrees() == [sum(gamma)]


def test_stacked_rank_counts():
    exprs = [
        op.U(sf.schur((1,))) * op.D(sf.schur((1,))),
        op.D(sf.schur((1,))) * op.U(sf.schur((1,))),
        op.identity_op(),
    ]
    # DU = UD + Id, so the three span a 2-dimensional space
    assert op.stacked_rank(exprs, 3) == 2
    assert not op.independent(exprs, 3)


def _fraction_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / p
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _dense_rank(exprs, n):
    """Rank of the stacked truncated matrices by dense Fraction elimination."""
    cod = n + max(max(0, e.max_degree_shift()) for e in exprs)
    return _fraction_rank(
        [[x for row in op.matrix_of(e, n, cod).entries for x in row] for e in exprs]
    )


def test_integer_rank_against_fraction_elimination():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)
        ]
        # all-zero rows and repeated rows, at random places
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * m)
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
        assert op._integer_rank(rows) == _fraction_rank(rows)


def _planted_sparse_matrix(rng, n_rows, n_cols, density, top):
    """A seeded tall sparse integer matrix with entries up to `top` in
    size: some columns are combinations of two others, some rows are
    combinations of two others, and zero and repeated rows are mixed in."""
    cols = [[rng.randint(-top, top) if rng.random() < density else 0
             for _ in range(n_rows)] for _ in range(n_cols)]
    for j in rng.sample(range(n_cols), rng.randint(0, 4)):
        x, y = rng.sample([i for i in range(n_cols) if i != j], 2)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        cols[j] = [a * u + b * v for u, v in zip(cols[x], cols[y])]
    rows = [list(r) for r in zip(*cols)]
    for _ in range(rng.randint(1, 20)):
        x, y = rng.sample(range(len(rows)), 2)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        rows.append([a * u + b * v for u, v in zip(rows[x], rows[y])])
    for _ in range(rng.randint(1, 10)):
        rows.insert(rng.randint(0, len(rows)), [0] * n_cols)
        rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    return rows


def test_integer_rank_of_tall_sparse_planted_matrices():
    rng = random.Random(13)
    ranks = set()
    for _ in range(8):
        rows = _planted_sparse_matrix(rng, 300, 16, 0.1, 10**6)
        want = _fraction_rank(rows)
        ranks.add(want)
        assert op._integer_rank(rows) == want
        # the same matrix as sparse mappings, and scaled to rationals
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        assert op._integer_rank(sparse) == want
        scaled = [[Fraction(x, i % 7 + 1) for x in r] for i, r in enumerate(rows)]
        assert op._integer_rank(scaled) == want
    assert len(ranks) > 1 and max(ranks) <= 16


def test_integer_rank_edge_cases():
    assert op._integer_rank([]) == 0
    assert op._integer_rank([[], []]) == 0
    assert op._integer_rank([{}, {}]) == 0
    assert op._integer_rank([[0], [0]]) == 0
    assert op._integer_rank([[0], [Fraction(-1, 2)], [3]]) == 1
    assert op._integer_rank([[0, 0], [0, 5]]) == 1
    assert op._integer_rank([{"b": 2}, {"a": 1, "b": 1}, {"a": 2, "b": 4}]) == 2
    for n in range(4):
        assert op.stacked_rank([], n) == 0
        assert op.stacked_rank([op.zero_op()], n) == 0
        assert not op.independent([op.zero_op()], n)


def test_stacked_rank_reads_each_image_over_its_own_denominator():
    # (Id + UD)(s_lam) is s_0 at lam = 0 and 2 s_1 at lam = 1, so half of
    # it sits over 2 on the first image and over 1 on the second
    one = op.identity_op() + op.U((1,)) * op.D((1,))
    half = Fraction(1, 2) * one
    assert [op.stacked_rank([one, half], n) for n in range(4)] == [1, 1, 1, 1]
    assert op.stacked_rank([one, half, op.identity_op()], 3) == 2


def test_stacked_rank_of_the_benchmark_words_with_a_planted_sum():
    # the 49 words U_a D_b with |a|, |b| <= 3 are independent; a sum of two
    # of them adds no rank, which the dense elimination confirms
    small = pt.partitions_upto(3)
    words = [op.U(sf.schur(a)) * op.D(sf.schur(b)) for a in small for b in small]
    exprs = words + [words[5] - 3 * words[40]]
    assert op.stacked_rank(exprs, 4) == _dense_rank(exprs, 4) == 49
    assert op.independent(words, 4)


def _counting_evaluations(monkeypatch):
    """Count every (expression, basis vector) evaluation from here on: each
    is one run of the compiled words by `_accumulate`."""
    calls = [0]
    accumulate = op._accumulate

    def counted(*args, **kwargs):
        calls[0] += 1
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(op, "_accumulate", counted)
    return calls


def test_stacked_rank_stops_at_full_column_rank(monkeypatch):
    # the 49 words U_a D_b with |a|, |b| <= 3 reach rank 49 on the first 7
    # basis vectors (every s_lam with |lam| <= 3), whatever the truncation
    small = pt.partitions_upto(3)
    words = [op.U(sf.schur(a)) * op.D(sf.schur(b)) for a in small for b in small]
    calls = _counting_evaluations(monkeypatch)
    compiled = [0]
    compile_ = op._compile

    def counted_compile(*args, **kwargs):
        compiled[0] += 1
        return compile_(*args, **kwargs)

    monkeypatch.setattr(op, "_compile", counted_compile)
    assert op.stacked_rank(words, 7) == 49
    assert calls[0] == 49 * 7
    # each expression is compiled once per call, not once per basis vector
    assert compiled[0] == 49
    for n in range(3, 10):
        assert op.stacked_rank(words, n) == 49


def test_stacked_rank_reaches_full_rank_at_the_last_basis_vector(monkeypatch):
    # D(s_111) is zero below s_111, the last basis vector of degree 3
    pair = [op.U((1,)), op.D((1, 1, 1))]
    ranks = [op.stacked_rank(pair, n) for n in range(5)]
    assert ranks == [_dense_rank(pair, n) for n in range(5)] == [1, 1, 1, 2, 2]
    calls = _counting_evaluations(monkeypatch)
    for n in (2, 3, 4):
        calls[0] = 0
        op.stacked_rank(pair, n)
        assert calls[0] == 2 * min(len(pt.partitions_upto(n)), 7)


def test_stacked_rank_image_beyond_codomain_raises(monkeypatch):
    # with the degree shift understated, U(s_1) maps s_lam past the
    # codomain bound that stacked_rank derives from it
    monkeypatch.setattr(op.OperatorExpr, "max_degree_shift", lambda self: 0)
    with pytest.raises(AssertionError, match="image degree 1 exceeds codomain bound 0"):
        op.stacked_rank([op.U(sf.schur((1,)))], 0)


def _kb_operands(count, seed):
    """`count` seeded pairs (f, g) in random bases with small rational
    coefficients: f has up to three terms of degree <= 4, g up to four
    terms of degree <= 5, so g is often inhomogeneous and many terms of f
    are larger than the component of g they meet."""
    rng = random.Random(seed)

    def operand(max_degree, max_terms):
        parts = pt.partitions_upto(max_degree)
        terms = {
            rng.choice(parts): Fraction(rng.randrange(1, 7) * rng.choice((-1, 1)),
                                        rng.choice((1, 1, 2, 3, 4, 6)))
            for _ in range(rng.randrange(1, max_terms + 1))
        }
        return sf.SymFunc(rng.choice(sf.BASES), terms)

    return [(operand(4, 3), operand(5, 4)) for _ in range(count)]


def test_apply_KB_outputs_pinned():
    # every byte that to_json and render print for KB_f(g)
    pairs = _kb_operands(200, 2016)
    assert any(len(g.degrees()) > 1 for _f, g in pairs)
    assert any(
        sum(lam) > sum(mu) for f, g in pairs for lam in f.terms for mu in g.terms
    )
    digest = hashlib.sha256()
    for f, g in pairs:
        out = op.apply_KB(f, g)
        digest.update(json.dumps(sf.to_json(out)).encode())
        digest.update(f"\n{sf.render(out)}\n".encode())
    assert digest.hexdigest() == (
        "e6f80bd127773e5a0c7bfb43a98b5f19aba75cc7fbd272633d69c92e37d55705"
    )


def test_apply_of_a_multi_word_expression_is_pinned():
    # words over several denominators and bases, a word whose value becomes
    # zero (U after D(s[3]) on degree <= 2) and the identity word
    half_p = sf.SymFunc("p", {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    expr = (
        Fraction(2, 3) * op.K(sf.schur((2, 1))) * op.U(half_p)
        + op.D(sf.h((1,))) * op.U(sf.SymFunc("s", {(1,): Fraction(1, 3), (2,): -2}))
        - op.identity_op()
        + op.U(sf.schur((1,))) * op.D(sf.schur((3,)))
        + op.KB(sf.e((1,)))
    )
    g = sf.SymFunc("s", {(1,): Fraction(3, 4), (1, 1): Fraction(-1, 6)})
    assert str(expr.apply(g)) == (
        "-1/4*s[1] - 29/9*s[2] - 13/9*s[1,1] + 5/6*s[3] + 5/3*s[2,1] + 5/6*s[1,1,1]"
    )


def test_generator_denominator_above_its_schur_one():
    # 1/2 p[2] + 1/2 p[1,1] = s[2] sits over 2 in p and over 1 in s
    half_p = sf.SymFunc("p", {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert sf.to_basis(half_p, "s") == sf.schur((2,))
    g = sf.SymFunc("h", {(2, 1): Fraction(1, 3), (1,): 5})
    for gen in (op.U, op.D, op.K, op.KB):
        assert gen(half_p).apply(g) == gen(sf.schur((2,))).apply(g)
        assert op.disagreements([gen(half_p), gen((2,))], pt.partitions_upto(4)) == []
