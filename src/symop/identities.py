"""Catalog-driven verification by exhaustion of the normal ordering and
product identities, at caller-chosen degree bounds, with counterexample
reporting.

Operator-valued identities are checked extensionally, on every Schur
function s_gamma with |gamma| up to the declared vector bound: the
difference of the two sides is compiled once per instance into integer
words and must add up to exactly zero on each s_gamma, and both images
are built only for a counterexample.  Summation ranges are
derived from the vanishing of skew terms (s_{a/l} = 0 unless l is
contained in a), so every sum here is finite and exact, never truncated
by guesswork.

The six normal ordering relations are rows of one table, and the three
commutators are derived from it as the paper derives them: each is the
left side of relation 1, 5 or 6 minus its swapped word, against the
relation's skew sum without that term.  A row gives the left side and
the word of its right sides as letters (kind, slot), a generator and the
slot of its argument, and every sum of words is built from the letters
as the word tuples themselves (`_word_sum`), not through U, D, K, KB and
composition.

When every identity holds, the six relations are the only operator sums
of this family that are evaluated.  Each relation's verdict at (a, b)
and a vector bound, the gammas on which its left side and skew form
differ, is memoized once (`_verdict`).  The structure-constant forms and
the commutators are formal consequences of the relations, and they are
decided as such, by collected word forms (`operators._collected`): the
skew form, with each argument written in the Schur basis, must collect
to the coefficient table, and a commutator's sides must collect to its
relation rearranged.  Equal collected forms are equal on every input, so
such an entry takes the relation's verdict.  An entry whose forms differ,
or whose relation names a gamma, evaluates its own sides in full, so its
failures are the ones that evaluation finds.

Every piece that depends on only part of an instance (the relations' term
lists, the splits of beta, D_lam(s_x) and s_mu * s_x) is memoized by
canonical partitions and built once for all the instances that share it;
`verify_instance` makes its partition params canonical before the check.
The structure-constant forms read their coefficients off the memoized LR
and Kronecker splits, so each coefficient is asked of `coeffs` once.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable

from . import coeffs
from . import operators as op
from . import partitions as pt
from . import symfunc as sf
from . import tableaux as tb
from .reporting import Failure, VerificationReport


@dataclass(frozen=True)
class Bounds:
    """Degree bounds for a suite run.

    max_ab bounds the operator index partitions (and small integer
    parameters like the Pieri k); max_g bounds test vectors and free shape
    parameters.
    """

    max_ab: int = 2
    max_g: int = 3


@dataclass(frozen=True)
class Entry:
    ident: str
    formula: str
    instances: Callable  # Bounds -> list of params dicts
    check: Callable  # params dict -> (checked count, [Failure])


def _ops_equal(params, exprs, vector_bound):
    """All expressions agree on every s_gamma with |gamma| <= bound, each
    difference exprs[0] - exprs[k] adding up to zero there
    (`operators.disagreements`); both images are built only for a
    reported gamma."""
    gammas = pt.partitions_upto(vector_bound)
    failures = []
    for gamma, k in op.disagreements(exprs, gammas):
        g = sf.schur(gamma)
        failures.append(
            Failure({**params, "gamma": gamma}, exprs[0].apply(g), exprs[k].apply(g))
        )
    return len(gammas), failures


def _sym_equal(params, lhs, rhs):
    if lhs != rhs:
        return 1, [Failure(params, lhs, rhs)]
    return 1, []


def _pairs(bound):
    ps = pt.partitions_upto(bound)
    return [(a, b) for a in ps for b in ps]


def _ab_instances(bounds):
    return [
        {"alpha": a, "beta": b, "vector_bound": bounds.max_g}
        for a, b in _pairs(bounds.max_ab)
    ]


# ---------------------------------------------------------------------------
# the six normal ordering relations
#
# Both right sides of a relation are sums of c * word(x, y) over one
# two-letter word: the skew form over (c, x, y) terms of skew functions, the
# structure-constant form over x = s_mu, y = s_nu with c from {(mu, nu): c}.
# The term lists depend on (a, b) alone, not on the vector bound, so they
# are memoized by canonical partitions and shared as tuples by every
# instance, entry and commutator that reads them.

@cache
def _du_terms(alpha, beta, twisted):
    """Terms (1, s_{a/l}, s_{b/l}) over l in a and b; when twisted, l' takes
    the place of l in b and the sign is (-1)^|l|."""
    out = []
    for lam in pt.sub_partitions(alpha):
        lam2 = pt.conjugate(lam) if twisted else lam
        if not pt.contains(lam2, beta):
            continue
        sign = -1 if twisted and sum(lam) % 2 else 1
        out.append((sign, sf.skew_schur(alpha, lam), sf.skew_schur(beta, lam2)))
    return tuple(out)


@cache
def _skew_kron_terms(alpha, beta):
    """Terms (1, s_{b/lam} * s_a, s_lam) over lam in b with |b/lam| = |a|;
    used by both orders of the K/U relation."""
    return tuple(
        (1, sf.kronecker(sf.skew_schur(beta, lam), sf.schur(alpha)), sf.schur(lam))
        for lam in pt.sub_partitions(beta)
        if sum(beta) - sum(lam) == sum(alpha)
    )


@cache
def _kbu_terms(alpha, beta):
    """Terms (1, f, s_nu) with f = (s_{beta/nu} * s_tau) s_{alpha/tau} summed
    over tau; used by both orders of the KB/U relation."""
    out = []
    for nu in pt.sub_partitions(beta):
        f = sf.linear_combination(
            (1, sf.mul(sf.kronecker(sf.skew_schur(beta, nu), sf.schur(tau)),
                       sf.skew_schur(alpha, tau)))
            for tau in pt.sub_partitions(alpha)
            if sum(tau) == sum(beta) - sum(nu)
        )
        if not f.is_zero():
            out.append((1, f, sf.schur(nu)))
    return tuple(out)


# The nonzero LR and Kronecker splits of a partition, memoized; the three
# structure-constant tables below are joins of them.

@cache
def _lr_splits(b):
    """Triples (lam, mu, c^b_{lam,mu}) with a nonzero coefficient."""
    return tuple(
        (lam, mu, c)
        for lam in pt.sub_partitions(b)
        for mu in pt.partitions_of(sum(b) - sum(lam))
        if (c := coeffs.lr_coeff(b, lam, mu))
    )


@cache
def _kron_splits(b):
    """Triples (lam, mu, g_{b,lam,mu}) with lam, mu of |b| and a nonzero
    coefficient."""
    k = sum(b)
    return tuple(
        (lam, mu, g)
        for lam in pt.partitions_of(k)
        for mu in pt.partitions_of(k)
        if (g := coeffs.kron_coeff(b, lam, mu))
    )


def _by_first(splits):
    """A split table as {lam: [(mu, c), ...]}, in the table's order."""
    out = {}
    for lam, mu, c in splits:
        out.setdefault(lam, []).append((mu, c))
    return out


def _cor_coeffs_du(alpha, beta, twisted):
    """(mu, nu) -> sum_lam c^alpha_{lam,mu} c^beta_{lam,nu}, with lam
    conjugated and sign-weighted in the twisted variant."""
    at_beta = _by_first(_lr_splits(beta))
    acc = {}
    for lam, mu, c1 in _lr_splits(alpha):
        sign = -1 if twisted and sum(lam) % 2 else 1
        for nu, c2 in at_beta.get(pt.conjugate(lam) if twisted else lam, ()):
            key = (mu, nu)
            acc[key] = acc.get(key, 0) + sign * c1 * c2
    return acc


def _cor_coeffs_ku(alpha, beta):
    """(mu, nu) -> sum_lam g_{alpha,lam,mu} c^beta_{lam,nu}."""
    at_beta = _by_first(_lr_splits(beta))
    acc = {}
    for lam, mu, g in _kron_splits(alpha):
        for nu, c in at_beta.get(lam, ()):
            key = (mu, nu)
            acc[key] = acc.get(key, 0) + g * c
    return acc


def _cor_coeffs_kbu(alpha, beta):
    """(mu, nu) -> sum over lam, sigma, tau, theta of
    g_{lam,tau,theta} c^beta_{lam,nu} c^alpha_{tau,sigma} c^mu_{theta,sigma}."""
    acc = {}
    for nu, lam, c_bn in _lr_splits(beta):
        at_lam = _by_first(_kron_splits(lam))
        for tau, sigma, c_as in _lr_splits(alpha):
            for theta, g in at_lam.get(tau, ()):
                w = g * c_bn * c_as
                for mu, cm in sf._schur_mul_terms(theta, sigma):
                    key = (mu, nu)
                    acc[key] = acc.get(key, 0) + w * cm
    return acc


def _word_sum(letters, terms):
    """The operator sum of c * word(x, y) over the (c, x, y) terms, one
    word per term in order, where the two letters (kind, slot) of the
    word name a generator and its argument, x at slot 0 and y at slot 1.
    Each word is built as the tuple (Fraction(c), ((kind, x or y), ...))
    that U, D, K, KB and composition would give, and a term with c == 0
    or a zero x or y gives no word, as in the OperatorExpr constructor."""
    (k1, i1), (k2, i2) = letters
    words = []
    for c, x, y in terms:
        if c and not x.is_zero() and not y.is_zero():
            xy = (x, y)
            words.append((Fraction(c), ((k1, xy[i1]), (k2, xy[i2]))))
    return op.OperatorExpr._trusted(tuple(words))


# Each row is (lhs, word, skew_terms, coef_table): lhs and word are two
# letters (kind, slot), the leftmost generator first; the left side is the
# word of lhs at x = s_a, y = s_b (`_word_sum`), and skew_terms(a, b) and
# coef_table(a, b) give the terms of the two right sides described above.
_RELATIONS = {
    1: ((("D", 1), ("U", 0)), (("U", 0), ("D", 1)),
        partial(_du_terms, twisted=False),
        partial(_cor_coeffs_du, twisted=False)),
    2: ((("U", 0), ("D", 1)), (("D", 1), ("U", 0)),
        partial(_du_terms, twisted=True),
        partial(_cor_coeffs_du, twisted=True)),
    3: ((("K", 1), ("U", 0)), (("U", 0), ("K", 1)),
        _skew_kron_terms, _cor_coeffs_ku),
    4: ((("D", 0), ("K", 1)), (("K", 1), ("D", 0)),
        _skew_kron_terms, _cor_coeffs_ku),
    5: ((("KB", 1), ("U", 0)), (("U", 0), ("KB", 1)),
        _kbu_terms, _cor_coeffs_kbu),
    6: ((("D", 0), ("KB", 1)), (("KB", 1), ("D", 0)),
        _kbu_terms, _cor_coeffs_kbu),
}


def _lhs(i, sa, sb):
    """Relation i's left side at s_a, s_b."""
    return _word_sum(_RELATIONS[i][0], [(1, sa, sb)])


def _rhs(i, form, a, b):
    """Relation i's skew-sum right side (form 1) or structure-constant
    right side (form 2), at canonical partitions a and b."""
    _lhs, word, skew_terms, coef_table = _RELATIONS[i]
    if form == 1:
        return _word_sum(word, skew_terms(a, b))
    return _word_sum(word, [
        (c, sf.schur(mu), sf.schur(nu)) for (mu, nu), c in coef_table(a, b).items()
    ])


def normal_order_forms(i, alpha, beta):
    """The i-th of the six normal ordering relations, i in 1..6.

    Returns (lhs, skew-sum RHS, structure-constant RHS) as OperatorExprs,
    so the two stated right-hand sides can be compared instance by
    instance.
    """
    if i not in _RELATIONS:
        raise ValueError(f"relation index {i} not in 1..6")
    a = pt.make_partition(alpha)
    b = pt.make_partition(beta)
    lhs = _lhs(i, sf.schur(a), sf.schur(b))
    return lhs, _rhs(i, 1, a, b), _rhs(i, 2, a, b)


@cache
def _verdict(i, a, b, vector_bound):
    """The gammas, |gamma| <= vector_bound, on which relation i's left side
    and skew form differ at (a, b), as a tuple: empty when the relation
    holds there.  The one memo of a verdict, shared by the relation's
    entry, its structure-constant entry and the commutators, whose sides
    collect to the same words; it holds no image."""
    exprs = [_lhs(i, sf.schur(a), sf.schur(b)), _rhs(i, 1, a, b)]
    found = op.disagreements(exprs, pt.partitions_upto(vector_bound))
    return tuple(gamma for gamma, _k in found)


def _relation(i, a, b):
    """Relation i's left side minus its skew form, at (a, b)."""
    return _lhs(i, sf.schur(a), sf.schur(b)) - _rhs(i, 1, a, b)


def _table_collects(i, a, b):
    """Relation i's skew form collects to its coefficient table at (a, b):
    to the word at (s_mu, s_nu) with coefficient c for each nonzero entry
    (mu, nu): c, so the two right sides are equal on every input."""
    _left, ((k1, i1), (k2, i2)), _skew_terms, coef_table = _RELATIONS[i]
    table = {((k1, mn[i1]), (k2, mn[i2])): c
             for mn, c in coef_table(a, b).items() if c}
    return op._collected(_rhs(i, 1, a, b)) == table


def _shared_verdict(prm, collects, relations, exprs):
    """The report of _ops_equal(prm, exprs(), vector bound).  When
    `collects` holds, each difference exprs[0] - exprs[k] collects to plus
    or minus a relation in `relations`, so the report is a pass read off
    their verdicts (`_verdict`) if none names a gamma.  In every other case
    exprs() is evaluated as `_ops_equal` does, so a failure is reported in
    full."""
    vb = prm["vector_bound"]
    a, b = prm["alpha"], prm["beta"]
    if collects and not any(_verdict(i, a, b, vb) for i in relations):
        return len(pt.partitions_upto(vb)), []
    return _ops_equal(prm, exprs(), vb)


def _normal_order_check(i, form):
    """Catalog check of relation i against its skew form (form 1) or its
    structure-constant form (form 2): relation i's verdict, which form 2
    shares when its table collects from the skew form (`_table_collects`).
    Otherwise, or when that verdict names a gamma, the check builds and
    evaluates its own right side as it always has."""

    def check(prm):
        a, b = prm["alpha"], prm["beta"]
        return _shared_verdict(
            prm, form == 1 or _table_collects(i, a, b), (i,),
            lambda: [_lhs(i, sf.schur(a), sf.schur(b)), _rhs(i, form, a, b)],
        )

    return check


# ---------------------------------------------------------------------------
# commutators

def _reduced(i, a, b):
    """Relation i with its one skew term (1, s_a, s_b) moved to the left
    side: (lhs - w(s_a, s_b), the sum of the other skew terms)."""
    _left, word, skew_terms, _coef_table = _RELATIONS[i]
    sa, sb = sf.schur(a), sf.schur(b)
    rest = [t for t in skew_terms(a, b) if t != (1, sa, sb)]
    comm = _lhs(i, sa, sb) + _word_sum(word, [(-1, sa, sb)])
    return comm, _word_sum(word, rest)


def _commutator_sides(i, negated, a, b):
    """The sums [comm, rest] + [-rest_j for j in negated] of relation i's
    commutator at (a, b), and whether comm - rest collects to relation i
    (lhs - skew) and each comm + rest_j to minus relation j.  The first is
    relation i rearranged; in `commutators_1` the second is relation 2
    rearranged, since comm_1 = -comm_2."""
    comm, rest = _reduced(i, a, b)
    exprs = [comm, rest] + [-_reduced(j, a, b)[1] for j in negated]
    diffs = [(comm - rest, _relation(i, a, b))] + [
        (comm - e, -_relation(j, a, b)) for e, j in zip(exprs[2:], negated)
    ]
    return exprs, all(not op._collected(x - y) for x, y in diffs)


def _commutator_check(i, *negated):
    """Catalog check of relation i's commutator against its other skew
    terms, and against minus those of each relation in negated: their
    verdicts when the sides collect to them (`_commutator_sides`)."""

    def check(prm):
        exprs, collects = _commutator_sides(i, negated, prm["alpha"], prm["beta"])
        return _shared_verdict(prm, collects, (i, *negated), lambda: exprs)

    return check


# ---------------------------------------------------------------------------
# classical product identities

def _fg_instances(bounds):
    out = []
    for b in pt.partitions_upto(bounds.max_ab):
        for x in pt.partitions_upto(bounds.max_g):
            for y in pt.partitions_upto(bounds.max_g - sum(x)):
                out.append({"beta": b, "f": x, "g": y})
    return out


# The pieces D_l(s_x) and s_m * s_x depend on part of an instance
# (b, f, g) only, so each is memoized by canonical partitions; the splits
# of b are those of the relations' coefficient tables.

@cache
def _skewed(lam, x):
    """D_lam(s_x)."""
    return sf.skew(sf.schur(x), sf.schur(lam))


@cache
def _kron_schur(mu, x):
    """s_mu * s_x."""
    return sf.kronecker(sf.schur(mu), sf.schur(x))


def _chk_foulkes(prm):
    b, x, y = prm["beta"], prm["f"], prm["g"]
    fx, gy, sb = sf.schur(x), sf.schur(y), sf.schur(b)
    lhs = sf.skew(sf.mul(fx, gy), sb)
    rhs = sf.linear_combination(
        (c, sf.mul(_skewed(lam, x), _skewed(mu, y)))
        for lam, mu, c in _lr_splits(b)
    )
    return _sym_equal(prm, lhs, rhs)


def _chk_littlewood(prm):
    b, x, y = prm["beta"], prm["f"], prm["g"]
    fx, gy, sb = sf.schur(x), sf.schur(y), sf.schur(b)
    lhs = sf.kronecker(sb, sf.mul(fx, gy))
    rhs = sf.linear_combination(
        (c, sf.mul(_kron_schur(mu, x), _kron_schur(lam, y)))
        for lam, mu, c in _lr_splits(b)
    )
    return _sym_equal(prm, lhs, rhs)


def _chk_similar(prm):
    b, x, y = prm["beta"], prm["f"], prm["g"]
    fx, gy, sb = sf.schur(x), sf.schur(y), sf.schur(b)
    lhs = sf.skew(sf.kronecker(fx, gy), sb)
    rhs = sf.linear_combination(
        (g, sf.kronecker(_skewed(lam, x), _skewed(mu, y)))
        for lam, mu, g in _kron_splits(b)
    )
    return _sym_equal(prm, lhs, rhs)


def _rf_instances(bounds):
    return [
        {"alpha": a, "beta": b, "gamma": g}
        for a, b in _pairs(bounds.max_ab)
        for g in pt.partitions_upto(bounds.max_g)
    ]


def _chk_reverse_foulkes(prm):
    a, b, g = prm["alpha"], prm["beta"], prm["gamma"]
    lhs = sf.mul(sf.schur(a), sf.skew_schur(g, b))
    rhs = sf.linear_combination(
        (sign, sf.skew(sf.mul(x, sf.schur(g)), y))
        for sign, x, y in _du_terms(a, b, twisted=True)
    )
    return _sym_equal(prm, lhs, rhs)


# ---------------------------------------------------------------------------
# one-row and one-column special cases

def _row(k):
    return sf.schur((k,)) if k else sf.one()


def _col(k):
    return sf.schur((1,) * k) if k else sf.one()


def _gessel_instances(lo):
    def gen(bounds):
        return [
            {"m": m, "n": n, "vector_bound": bounds.max_g}
            for m in range(lo, bounds.max_ab + 1)
            for n in range(lo, bounds.max_ab + 1)
        ]

    return gen


def _chk_gessel_1(prm):
    m, n = prm["m"], prm["n"]
    lhs = op.D(_row(n)) * op.U(_row(m))
    rhs = op.zero_op()
    for i in range(min(m, n) + 1):
        rhs = rhs + op.U(_row(m - i)) * op.D(_row(n - i))
    return _ops_equal(prm, [lhs, rhs], prm["vector_bound"])


def _chk_gessel_2(prm):
    m, n = prm["m"], prm["n"]
    lhs = op.U(_row(m)) * op.D(_row(n))
    rhs = op.D(_row(n)) * op.U(_row(m)) - op.D(_row(n - 1)) * op.U(_row(m - 1))
    return _ops_equal(prm, [lhs, rhs], prm["vector_bound"])


def _chk_gessel_3(prm):
    m, n = prm["m"], prm["n"]
    lhs = op.D(_col(n)) * op.U(_row(m))
    rhs = op.U(_row(m)) * op.D(_col(n)) + op.U(_row(m - 1)) * op.D(_col(n - 1))
    return _ops_equal(prm, [lhs, rhs], prm["vector_bound"])


# ---------------------------------------------------------------------------
# the straightened Kronecker family in terms of U and D

def _chk_kb1(prm):
    lhs = op.KB(sf.schur((1,)))
    rhs = op.U(sf.schur((1,))) * op.D(sf.schur((1,))) - op.identity_op()
    return _ops_equal(prm, [lhs, rhs], prm["vector_bound"])


def _chk_straightcorners(prm):
    a = prm["alpha"]
    sa = sf.schur(a)
    lhs = op.apply_KB(sf.schur((1,)), sa)
    rhs = sf.linear_combination(
        [(pt.noc(a) - 1, sa)] + [(1, sf.schur(b)) for b in pt.addremove_set(a)]
    )
    return _sym_equal(prm, lhs, rhs)


def _chk_kbk_ud(prm):
    k = prm["k"]
    # U_l D_l is relation 1's word at (s_l, s_l)
    terms = [(c, sf.schur(lam), sf.schur(lam))
             for c, n in ((1, k), (-1, k - 1)) for lam in pt.partitions_of(n)]
    rhs = _word_sum(_RELATIONS[1][1], terms)
    return _ops_equal(prm, [op.KB(_row(k)), rhs], prm["vector_bound"])


def _chk_kbf_ud(prm):
    f, vb = sf.schur(prm["lam"]), prm["vector_bound"]
    return _ops_equal(prm, [op.kb_as_UD(f, vb), op.KB(f)], vb)


def _chk_tworow_hook(prm):
    a, k, vb = prm["alpha"], prm["k"], prm["vector_bound"]
    sa = sf.schur(a)
    gammas = pt.partitions_upto(vb)
    checked = 0
    failures = []
    for conj, idx in ((False, _row), (True, _col)):
        params = {**prm, "index": "hook" if conj else "two-row"}
        # relation 5's terms (1, f_j, s_(j) or s_(1^j)), f_j nonzero
        terms = []
        for j in range(k + 1):
            f = sf.linear_combination(
                (1, sf.mul(sf.skew_schur(a, rho),
                           sf.schur(pt.conjugate(rho) if conj else rho)))
                for rho in pt.partitions_of(k - j)
            )
            if not f.is_zero():
                terms.append((1, f, idx(j)))
        rhs = _word_sum(_RELATIONS[5][1], terms)
        n, fl = _ops_equal(params, [_lhs(5, sa, idx(k)), rhs], vb)
        checked += n
        failures += fl
        # the straightened product form KB_k(s_a g) = sum_j f_j KB_j(g),
        # one check per g = s_gamma
        for gamma in gammas:
            g = sf.schur(gamma)
            lhs = op.apply_KB(idx(k), sf.mul(sa, g))
            rhs = sf.linear_combination(
                (c, sf.mul(f, op.apply_KB(kb, g))) for c, f, kb in terms
            )
            if lhs != rhs:
                failures.append(
                    Failure({**params, "form": "product", "gamma": gamma}, lhs, rhs)
                )
        checked += len(gammas)
    return checked, failures


def _chk_littlewood_sum(prm):
    a, q = prm["alpha"], prm["q"]
    n = sum(a)
    sa = sf.schur(a)
    pieces = [(rho, sf.skew_schur(a, rho)) for rho in pt.partitions_of(q)]
    lhs_h = sf.linear_combination(
        (1, sf.mul(piece, sf.schur(rho))) for rho, piece in pieces
    )
    lhs_e = sf.linear_combination(
        (1, sf.mul(piece, sf.schur(pt.conjugate(rho)))) for rho, piece in pieces
    )
    rhs_h = sf.kronecker(sa, sf.mul(sf.h(n - q), sf.h(q)))
    rhs_e = sf.kronecker(sa, sf.mul(sf.h(n - q), sf.e(q)))
    return 2, [
        Failure({**prm, "version": tag}, lhs, rhs)
        for tag, lhs, rhs in (("h", lhs_h, rhs_h), ("e", lhs_e, rhs_e))
        if lhs != rhs
    ]


def _theta_instances(min_gap):
    def gen(bounds):
        out = []
        for a in pt.partitions_upto(bounds.max_g):
            for t in pt.sub_partitions(a):
                if sum(a) - sum(t) >= min_gap:
                    out.append({"alpha": a, "theta": t})
        return out

    return gen


def _skew_kron_lhs(a, t):
    n, k = sum(a), sum(t)
    return sf.kronecker(sf.skew_schur(a, t), sf.schur((n - k - 1, 1)))


def _chk_skew_corners(prm):
    a, t = prm["alpha"], prm["theta"]
    return _sym_equal(prm, _skew_kron_lhs(a, t), tb.skew_corners_rhs(a, t))


def _chk_nokronecker(prm):
    a, t = prm["alpha"], prm["theta"]
    added = sf.linear_combination((1, sf.skew_schur(a, d)) for d in pt.add_set(t))
    rhs = sf.mul(sf.schur((1,)), added) - sf.skew_schur(a, t)
    return _sym_equal(prm, _skew_kron_lhs(a, t), rhs)


def _chk_tabmanip2(prm):
    a, t = prm["alpha"], prm["theta"]
    lhs = sf.linear_combination(
        (1, sf.skew_schur(gamma, delta))
        for gamma in pt.add_set(a)
        for delta in pt.add_restrict(t, a)
    )
    coef = len(pt.add_set(a)) - len(pt.add_complement(t, a))
    rhs = sf.linear_combination(
        [(coef, sf.skew_schur(a, t))]
        + [(1, sf.skew_schur(beta, t)) for beta in pt.addremove_set(a)]
    )
    checked, failures = _sym_equal(prm, lhs, rhs)
    bij = tb.verify_jdt_bijection(a, t)
    return checked + bij.instances, failures + bij.failures


# ---------------------------------------------------------------------------
# the catalog

def _single(bounds):
    return [{"vector_bound": bounds.max_g}]


def _alpha_instances(bounds):
    return [{"alpha": a} for a in pt.partitions_upto(bounds.max_g)]


def _k_instances(bounds):
    return [
        {"k": k, "vector_bound": bounds.max_g}
        for k in range(1, bounds.max_ab + 1)
    ]


def _lam_instances(bounds):
    return [
        {"lam": lam, "vector_bound": bounds.max_g}
        for lam in pt.partitions_upto(bounds.max_ab)
    ]


def _tworow_instances(bounds):
    return [
        {"alpha": a, "k": k, "vector_bound": bounds.max_g}
        for a in pt.partitions_upto(bounds.max_ab)
        for k in range(1, bounds.max_ab + 1)
    ]


def _lsum_instances(bounds):
    return [
        {"alpha": a, "q": q}
        for a in pt.partitions_upto(bounds.max_g)
        for q in range(0, min(sum(a), bounds.max_ab) + 1)
    ]


CATALOG = {}


def _register(ident, formula, instances, check):
    CATALOG[ident] = Entry(ident, formula, instances, check)


for _form, (_prefix, _formulas) in enumerate((
    ("thm_main", (
        "D_b U_a = sum_l U_{a/l} D_{b/l}",
        "U_a D_b = sum_l (-1)^|l| D_{b/l'} U_{a/l}",
        "K_b U_a = sum_l U_{s_{b/l} * s_a} K_l",
        "D_a K_b = sum_l K_l D_{s_{b/l} * s_a}",
        "KB_b U_a = sum_{t,n} U_{(s_{b/n} * s_t) s_{a/t}} KB_n",
        "D_a KB_b = sum_{t,n} KB_n D_{(s_{b/n} * s_t) s_{a/t}}",
    )),
    ("thm_main_cor", (
        "D_b U_a = sum_{m,n} (sum_l c^a_{l,m} c^b_{l,n}) U_m D_n",
        "U_a D_b = sum_{m,n} (sum_l (-1)^|l| c^a_{l,m} c^b_{l',n}) D_n U_m",
        "K_b U_a = sum_{m,n} (sum_l g_{a,l,m} c^b_{l,n}) U_m K_n",
        "D_a K_b = sum_{m,n} (sum_l g_{a,l,m} c^b_{l,n}) K_n D_m",
        "KB_b U_a expanded with g and three c coefficients",
        "D_a KB_b expanded with g and three c coefficients",
    )),
), start=1):
    for _i, _formula in enumerate(_formulas, start=1):
        _register(f"{_prefix}_{_i}", _formula, _ab_instances,
                  _normal_order_check(_i, _form))
_register("commutators_1",
          "[D_b, U_a] = sum_{l != 0} U_{a/l} D_{b/l} "
          "= sum_{l != 0} (-1)^{|l|-1} D_{b/l'} U_{a/l}",
          _ab_instances, _commutator_check(1, 2))
_register("commutators_2",
          "[KB_b, U_a] = sum_{(t,n) != (0,b)} U_{(s_{b/n} * s_t) s_{a/t}} KB_n",
          _ab_instances, _commutator_check(5))
_register("commutators_3",
          "[D_a, KB_b] = sum_{(t,n) != (0,b)} KB_n D_{(s_{b/n} * s_t) s_{a/t}}",
          _ab_instances, _commutator_check(6))
_register("foulkes", "D_b(fg) = sum c^b_{l,m} D_l(f) D_m(g)",
          _fg_instances, _chk_foulkes)
_register("littlewood", "s_b * (fg) = sum c^b_{l,m} (s_m * f)(s_l * g)",
          _fg_instances, _chk_littlewood)
_register("similar", "D_b(f * g) = sum g_{b,l,m} D_l(f) * D_m(g)",
          _fg_instances, _chk_similar)
_register("reverse_foulkes",
          "s_a s_{g/b} = sum_l (-1)^|l| D_{b/l'}(s_{a/l} s_g)",
          _rf_instances, _chk_reverse_foulkes)
_register("gessel_1", "D_n U_m = sum_i U_{m-i} D_{n-i}",
          _gessel_instances(0), _chk_gessel_1)
_register("gessel_2", "U_m D_n = D_n U_m - D_{n-1} U_{m-1}",
          _gessel_instances(1), _chk_gessel_2)
_register("gessel_3", "D_{1^n} U_m = U_m D_{1^n} + U_{m-1} D_{1^{n-1}}",
          _gessel_instances(1), _chk_gessel_3)
_register("kb1", "KB_1 = U_1 D_1 - 1", _single, _chk_kb1)
_register("straightcorners",
          "KB_1 s_a = (noc(a) - 1) s_a + sum_{b in addremove(a)} s_b",
          _alpha_instances, _chk_straightcorners)
_register("kbk_ud",
          "KB_(k) = sum_{l of k} U_l D_l - sum_{l of k-1} U_l D_l",
          _k_instances, _chk_kbk_ud)
_register("kbf_ud", "KB_f = sum_l U_{f[X-1] * s_l} D_l",
          _lam_instances, _chk_kbf_ud)
_register("tworow_hook",
          "KB_(k) U_a and KB_(1^k) U_a expansions, plus their product forms",
          _tworow_instances, _chk_tworow_hook)
_register("littlewood_sum",
          "sum_{r of q} s_{a/r} s_r = s_a * h_{n-q} h_q (and the e version)",
          _lsum_instances, _chk_littlewood_sum)
_register("skew_corners",
          "s_{a/t} * s_{(n-k-1,1)} = (noc(a)-noc(t)-1) s_{a/t} "
          "+ sum s_{b/t} - sum s_{a/f}",
          _theta_instances(2), _chk_skew_corners)
_register("nokronecker",
          "s_{a/t} * s_{(n-k-1,1)} = s_1 sum_{d in add(t)} s_{a/d} - s_{a/t}",
          _theta_instances(2), _chk_nokronecker)
_register("tabmanip2",
          "sum_{g,d} s_{g/d} = (|add a| - |addcomplement|) s_{a/t} "
          "+ sum_b s_{b/t}, checked algebraically and by the jdt bijection",
          _theta_instances(0), _chk_tabmanip2)


def _report(entry, params, instances):
    """Run the entry's check on each params dict of instances, timed, as
    one report."""
    start = time.perf_counter()
    checked = 0
    failures = []
    for prm in instances:
        c, fl = entry.check(prm)
        checked += c
        failures += fl
    return VerificationReport(
        identity=entry.ident,
        params=params,
        instances=checked,
        failures=failures,
        elapsed=time.perf_counter() - start,
    )


# the params that name partitions, and those that are integers >= 0
_PARTITION_PARAMS = frozenset({"alpha", "beta", "gamma", "theta", "lam", "f", "g"})
_INTEGER_PARAMS = frozenset({"vector_bound", "m", "n", "k", "q"})


def verify_instance(ident, params):
    """Check one catalog identity at explicit parameters.  Partition params
    may be any part sequences (lists, JSON arrays, trailing zeros) and
    integer params any integral spelling (2.0, "2"): each is made
    canonical first, as the checks and their memos expect; one that is not
    a partition, or not an integer >= 0, is a ValueError that names it."""
    if ident not in CATALOG:
        raise ValueError(f"unknown identity {ident!r}")
    params = dict(params)
    for key, value in params.items():
        try:
            if key in _PARTITION_PARAMS:
                params[key] = pt.make_partition(value)
            elif key in _INTEGER_PARAMS:
                params[key] = n = pt._as_integer(value)
                if n < 0:
                    raise ValueError(f"{n} is negative")
        except (TypeError, ValueError) as exc:
            kind = "a partition" if key in _PARTITION_PARAMS else "an integer >= 0"
            raise ValueError(
                f"malformed params for {ident}: {key} is not {kind} ({exc})"
            ) from None
    try:
        return _report(CATALOG[ident], params, [dict(params)])
    except KeyError as exc:
        raise ValueError(f"malformed params for {ident}: missing {exc}") from None


def run_suite(bounds=Bounds(), ids=None):
    """Run catalog entries over all parameter instances within bounds.

    Entries run one after another; reports come back in the order the
    entries were requested (catalog order when ids is None).
    """
    if bounds.max_ab < 0 or bounds.max_g < 0:
        raise ValueError("bounds must be nonnegative")
    if ids is None:
        entries = list(CATALOG.values())
    else:
        unknown = [i for i in ids if i not in CATALOG]
        if unknown:
            raise ValueError(f"unknown identities {unknown}")
        entries = [CATALOG[i] for i in ids]
    params = f"bounds max_ab={bounds.max_ab} max_g={bounds.max_g}"
    return [_report(e, params, e.instances(bounds)) for e in entries]
