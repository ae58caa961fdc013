"""The graded ring of symmetric functions over Q, with exact arithmetic.

Values are sparse linear combinations of basis elements indexed by
partitions, in one of four bases: Schur (s), complete homogeneous (h),
elementary (e), power sum (p).  The Schur basis is the canonical internal
form; other bases are views converted on demand.  All computations are
exact.  Every coefficient a SymFunc holds is a nonzero fractions.Fraction,
but sums do not run on Fractions: the coefficients of an input are put
over their least common denominator d, the integer numerators are summed
against the integer structure constants (characters, LR and Kronecker
coefficients), and each result coefficient becomes a Fraction once, as its
integer sum over d.

Conversions route through characters: s_lam = sum_rho chi^lam(rho)/z_rho
p_rho and back.  Schur products use Littlewood-Richardson coefficients;
the Kronecker product is diagonal on power sums, p_lam * p_mu =
delta_{lam,mu} z_lam p_lam.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, prod
from typing import NamedTuple, Optional

from . import coeffs
from . import partitions as pt

BASES = ("s", "h", "e", "p")


class SymFunc:
    """A sparse combination of basis elements with rational coefficients."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=()):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for parts, c in items:
            key = pt.make_partition(parts)
            c = Fraction(c)
            if key in data:
                data[key] += c
            else:
                data[key] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", {k: v for k, v in data.items() if v})

    @classmethod
    def _trusted(cls, basis, terms):
        """Build from a fresh dict of canonical partition -> nonzero
        Fraction, which is kept as it is.  For internal code whose keys come
        from other SymFuncs or the memo tables and whose zeros are already
        dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({sum(k) for k in self.terms})

    def max_degree(self):
        return max((sum(k) for k in self.terms), default=0)

    def min_degree(self):
        return min((sum(k) for k in self.terms), default=0)

    def homogeneous_component(self, n):
        return SymFunc._trusted(
            self.basis, {k: v for k, v in self.terms.items() if sum(k) == n}
        )

    def coeff(self, parts):
        """Coefficient of s_parts in the Schur expansion."""
        return to_basis(self, "s").terms.get(pt.make_partition(parts), Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: pt.sort_key(kv[0]))

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1, other))

    def __neg__(self):
        return scale(-1, self)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    def kron(self, other):
        return kronecker(self, other)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            return self.terms == other.terms
        return to_basis(self, "s").terms == to_basis(other, "s").terms

    __hash__ = None

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<SymFunc {render(self)}>"


def _as_parts(parts):
    if isinstance(parts, int):
        return (parts,) if parts else ()
    return tuple(parts)


def schur(parts=()):
    return SymFunc("s", [(_as_parts(parts), 1)])


def h(parts):
    return SymFunc("h", [(_as_parts(parts), 1)])


def e(parts):
    return SymFunc("e", [(_as_parts(parts), 1)])


def p(parts):
    return SymFunc("p", [(_as_parts(parts), 1)])


def one():
    return schur(())


def zero(basis="s"):
    return SymFunc(basis)


def add(f, g):
    """Sum; operands in different bases are converted to Schur first."""
    if f.basis != g.basis:
        f, g = to_basis(f, "s"), to_basis(g, "s")
    data = dict(f.terms)
    for k, v in g.terms.items():
        data[k] = data.get(k, Fraction(0)) + v
    return SymFunc._trusted(f.basis, {k: v for k, v in data.items() if v})


def scale(c, f):
    c = Fraction(c)
    if not c:
        return zero(f.basis)
    return SymFunc._trusted(f.basis, {k: c * v for k, v in f.terms.items()})


def linear_combination(terms):
    """Schur-basis sum of c * f over the (c, f) pairs of terms, built as
    one dict; f may be in any basis."""
    out, d = {}, 1
    for c, f in terms:
        cn, cd = Fraction(c).as_integer_ratio()
        df, pairs = _int_terms(to_basis(f, "s").terms)
        q = cd * df
        if d % q:
            # a new denominator: put the running sum over lcm(d, q)
            m = q // gcd(d, q)
            for k in out:
                out[k] *= m
            d *= m
        _add_into(out, pairs, cn * (d // q))
    return SymFunc._trusted("s", _frac_terms(out, d))


def _int_terms(terms):
    """(d, pairs): the coefficients of a terms dict as integers over their
    least common denominator d, so that terms[k] == n / d for (k, n) in
    pairs."""
    d, ratios = 1, []
    for k, c in terms.items():
        n, q = c.as_integer_ratio()
        d = lcm(d, q)
        ratios.append((k, n, q))
    return d, [(k, n * (d // q)) for k, n, q in ratios]


def _frac_terms(out, d):
    """The nonzero out[k] / d as Fractions, for an integer dict out."""
    return {k: Fraction(n, d) for k, n in out.items() if n}


def _add_into(out, pairs, c):
    """out[k] += c * w for every (k, w) in pairs."""
    for k, w in pairs:
        out[k] = out.get(k, 0) + c * w


def _union_product(*factors):
    """Product, as a dict, of (partition, coef) sequences in a basis whose
    elements multiply by the multiset union of their parts (h, e and p)."""
    acc = {(): 1}
    for ys in factors:
        nxt = {}
        for lam, a in acc.items():
            _add_into(
                nxt, ((tuple(sorted(lam + mu, reverse=True)), b) for mu, b in ys), a
            )
        acc = nxt
    return acc


def _bilinear(f, g, table):
    """Schur sum of a * b * table(lam, mu) over the terms a s_lam of f and
    b s_mu of g."""
    da, fa = _int_terms(f.terms)
    db, gb = _int_terms(g.terms)
    out = {}
    for lam, a in fa:
        for mu, b in gb:
            _add_into(out, table(lam, mu), a * b)
    return SymFunc._trusted("s", _frac_terms(out, da * db))


# ---------------------------------------------------------------------------
# memoized structure-constant tables (all keyed by canonical partitions,
# all with int coefficients)

@cache
def _schur_to_p(lam):
    """The character table row (rho, chi^lam(rho)) over rho |- |lam|, so
    that s_lam = sum_rho chi^lam(rho)/z_rho p_rho."""
    out = []
    for rho in pt.partitions_of(sum(lam)):
        c = coeffs.mn_character(lam, rho)
        if c:
            out.append((rho, c))
    return tuple(out)


@cache
def _p_to_schur(rho):
    """p_rho as a Schur combination: sum_lam chi^lam(rho) s_lam."""
    out = []
    for lam in pt.partitions_of(sum(rho)):
        c = coeffs.mn_character(lam, rho)
        if c:
            out.append((lam, c))
    return tuple(out)


@cache
def _h_to_p(k):
    """(rho, k!/z_rho) over rho |- k, so that h_k = 1/k! sum_rho
    k!/z_rho p_rho; k!/z_rho is the size of the class of cycle type rho."""
    return tuple(
        (rho, factorial(k) // pt.z_factor(rho)) for rho in pt.partitions_of(k)
    )


@cache
def _e_to_p(k):
    """As _h_to_p, with the sign of a permutation of cycle type rho."""
    return tuple(
        (rho, -c if (k - len(rho)) % 2 else c) for rho, c in _h_to_p(k)
    )


@cache
def _schur_mul_terms(lam, mu):
    """Schur expansion of s_lam s_mu via LR coefficients."""
    out = []
    for nu in pt.partitions_of(sum(lam) + sum(mu)):
        if not (pt.contains(lam, nu) and pt.contains(mu, nu)):
            continue
        c = coeffs.lr_coeff(nu, lam, mu)
        if c:
            out.append((nu, c))
    return tuple(out)


@cache
def _schur_skew_terms(lam, mu):
    """Schur expansion of the skew function s_{lam/mu}."""
    if not pt.contains(mu, lam):
        return ()
    out = []
    for nu in pt.partitions_of(sum(lam) - sum(mu)):
        if not pt.contains(nu, lam):
            continue
        c = coeffs.lr_coeff(lam, mu, nu)
        if c:
            out.append((nu, c))
    return tuple(out)


@cache
def _schur_kron_terms(lam, mu):
    """Schur expansion of s_lam * s_mu (Kronecker), via the p basis:
    g_{lam,mu,nu} = sum_rho chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho,
    summed over n! and checked to be integral."""
    if sum(lam) != sum(mu):
        return ()
    n_fact = factorial(sum(lam))
    a = dict(_schur_to_p(lam))
    acc = {}
    for rho, b in _schur_to_p(mu):
        ca = a.get(rho)
        if ca is not None:
            _add_into(acc, _p_to_schur(rho), ca * b * (n_fact // pt.z_factor(rho)))
    out = []
    for nu, c in acc.items():
        g, rem = divmod(c, n_fact)
        if rem or g < 0:
            raise ValueError(
                f"non-integral character sum for {lam},{mu},{nu}: "
                f"{Fraction(c, n_fact)}"
            )
        if g:
            out.append((nu, g))
    return tuple(out)


@cache
def _he_to_p(basis, lam):
    """h_lam (basis "h") or e_lam (basis "e") in p, as (rho, n) with
    h_lam = sum n / |lam|! p_rho.  h_lam and e_lam are products of one-part
    generators; the product of the class-size tables is prod_i lam_i! h_lam,
    and the multinomial puts it over |lam|!."""
    table = _h_to_p if basis == "h" else _e_to_p
    m = factorial(sum(lam)) // prod(map(factorial, lam))
    return tuple(
        (rho, c * m) for rho, c in _union_product(*map(table, lam)).items()
    )


def _to_p_dict(f):
    """Expansion of f in the p basis, as a dict partition -> Fraction."""
    if f.basis == "p":
        return dict(f.terms)
    d, pairs = _int_terms(f.terms)
    out = {}
    if f.basis == "s":
        for lam, c in pairs:
            _add_into(out, _schur_to_p(lam), c)
        return {rho: Fraction(c, d * pt.z_factor(rho))
                for rho, c in out.items() if c}
    for lam, c in pairs:
        _add_into(out, _he_to_p(f.basis, lam), c)
    return {rho: Fraction(c, d * factorial(sum(rho)))
            for rho, c in out.items() if c}


def _p_dict_to_schur(terms):
    d, pairs = _int_terms(terms)
    out = {}
    for rho, c in pairs:
        _add_into(out, _p_to_schur(rho), c)
    return SymFunc._trusted("s", _frac_terms(out, d))


@cache
def _schur_to_h(lam):
    """h-expansion of s_lam by expanding the determinant det(h_{lam_i+j-i})."""
    n = len(lam)
    if n == 0:
        return (((), 1),)
    out = {}

    def expand(row, used_cols, indices, sign):
        if row == n:
            key = tuple(sorted((x for x in indices if x), reverse=True))
            out[key] = out.get(key, 0) + sign
            return
        for col in range(n):
            if used_cols & (1 << col):
                continue
            idx = lam[row] + col - row
            if idx < 0:
                continue
            swaps = bin(used_cols >> (col + 1)).count("1")
            expand(
                row + 1,
                used_cols | (1 << col),
                indices + (idx,),
                sign * (-1 if swaps % 2 else 1),
            )

    expand(0, 0, (), 1)
    return tuple((k, v) for k, v in out.items() if v)


@cache
def _schur_to_e(lam):
    """e-expansion of s_lam via the dual determinant on the conjugate."""
    return _schur_to_h(pt.conjugate(lam))


def to_basis(f, target):
    """Exact change of basis among s, h, e, p.  Round trips are identity."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    if target == "p":
        return SymFunc._trusted("p", _to_p_dict(f))
    fs = f if f.basis == "s" else _p_dict_to_schur(_to_p_dict(f))
    if target == "s":
        return fs
    table = _schur_to_h if target == "h" else _schur_to_e
    d, pairs = _int_terms(fs.terms)
    out = {}
    for lam, c in pairs:
        _add_into(out, table(lam), c)
    return SymFunc._trusted(target, _frac_terms(out, d))


def mul(f, g):
    """Ring product.  Schur basis uses LR coefficients; in the h, e and p
    bases the product of basis elements is the multiset union of parts."""
    if f.basis != g.basis:
        return mul(to_basis(f, "s"), to_basis(g, "s"))
    if f.basis == "s":
        return _bilinear(f, g, _schur_mul_terms)
    da, fa = _int_terms(f.terms)
    db, gb = _int_terms(g.terms)
    return SymFunc._trusted(f.basis, _frac_terms(_union_product(fa, gb), da * db))


def hall_inner(f, g):
    """Hall inner product; Schur functions are orthonormal, <p_lam, p_mu> =
    z_lam delta."""
    a = _to_p_dict(f)
    b = _to_p_dict(g)
    if len(b) < len(a):
        a, b = b, a
    total = Fraction(0)
    for rho, ca in a.items():
        cb = b.get(rho)
        if cb is not None:
            total += ca * cb * pt.z_factor(rho)
    return total


def kronecker(f, g):
    """Kronecker (internal) product, diagonal in the p basis.

    Components of different degree annihilate; s_{(n)} is the unit in
    degree n.
    """
    return _bilinear(to_basis(f, "s"), to_basis(g, "s"), _schur_kron_terms)


def skew(f, by):
    """The skewing operator D_by applied to f: the adjoint of multiplication
    by `by` with respect to the Hall inner product."""
    return _bilinear(to_basis(f, "s"), to_basis(by, "s"), _schur_skew_terms)


def skew_schur(shape, inner=None):
    """Schur expansion of a skew Schur function.

    Accepts a SkewShape, or a pair (outer, inner) of partitions in which
    case the result is zero when inner is not contained in outer.
    """
    if isinstance(shape, pt.SkewShape):
        outer, inner = shape.outer, shape.inner
    else:
        outer = pt.make_partition(shape)
        inner = pt.make_partition(inner if inner is not None else ())
    return SymFunc._trusted(
        "s", {nu: Fraction(c) for nu, c in _schur_skew_terms(outer, inner)}
    )


class SignedSchur(NamedTuple):
    """Result of Jacobi-Trudi straightening: 0, or +-1 with a partition."""

    sign: int
    shape: Optional[tuple]


def jacobi_trudi(seq):
    """Straighten det(h_{a_i+j-i}) for an arbitrary integer sequence a.

    Shift by the staircase, then either two shifted entries collide (the
    determinant vanishes) or sorting them is a signed permutation onto a
    partition.  A negative part after sorting also kills the determinant.
    """
    seq = tuple(map(pt._as_integer, seq))
    b = [seq[i] - (i + 1) for i in range(len(seq))]
    if len(set(b)) != len(b):
        return SignedSchur(0, None)
    inversions = sum(
        1 for i, j in itertools.combinations(range(len(b)), 2) if b[i] < b[j]
    )
    sign = -1 if inversions % 2 else 1
    bs = sorted(b, reverse=True)
    lam = [bs[i] + (i + 1) for i in range(len(bs))]
    if any(x < 0 for x in lam):
        return SignedSchur(0, None)
    return SignedSchur(sign, tuple(x for x in lam if x))


def jacobi_trudi_func(seq):
    """Like jacobi_trudi but packaged as a SymFunc (zero or +-s_shape)."""
    sg, shape = jacobi_trudi(seq)
    if sg == 0:
        return zero()
    return SymFunc("s", [(shape, sg)])


def shift_minus_one(f):
    """The substitution f[X-1]: expand in the p basis and send every p_k to
    p_k - 1.  The result is inhomogeneous of degree <= deg f."""
    d, pairs = _int_terms(_to_p_dict(f))
    out = {}
    for rho, c in pairs:
        minus_one = [(((k,), 1), ((), -1)) for k in rho]
        _add_into(out, _union_product(*minus_one).items(), c)
    return _p_dict_to_schur(_frac_terms(out, d))


def gamma1_component(f, n):
    """Degree-n component of the vertex operator image sigma[X] f[X-1],
    computed as sum_j h_j (f[X-1])_{n-j}."""
    g = shift_minus_one(f)
    return linear_combination(
        (1, mul(schur(j), g.homogeneous_component(n - j))) for j in range(n + 1)
    )


# ---------------------------------------------------------------------------
# text and JSON forms

def _coef_str(c):
    return str(c)


def render(f):
    """Canonical text: terms ordered by (degree, reverse-lex partition)."""
    if f.is_zero():
        return "0"
    atoms = []
    for parts, c in f.sorted_terms():
        body = f"{f.basis}[{pt.render_partition(parts)}]"
        mag = abs(c)
        piece = body if mag == 1 else f"{_coef_str(mag)}*{body}"
        atoms.append(("-" if c < 0 else "+", piece))
    sign0, first = atoms[0]
    text = ("-" if sign0 == "-" else "") + first
    for sg, piece in atoms[1:]:
        text += f" {sg} {piece}"
    return text


def to_json(f):
    return {
        "basis": f.basis,
        "terms": [
            {"part": list(parts), "coef": _coef_str(c)}
            for parts, c in f.sorted_terms()
        ],
    }


def from_json(obj):
    return SymFunc(
        obj["basis"], [(tuple(t["part"]), Fraction(t["coef"])) for t in obj["terms"]]
    )
