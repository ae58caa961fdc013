"""The graded ring of symmetric functions over Q, with exact arithmetic.

Values are sparse linear combinations of basis elements indexed by
partitions, in one of four bases: Schur (s), complete homogeneous (h),
elementary (e), power sum (p).  The Schur basis is the canonical internal
form; other bases are views converted on demand.  All computations are
exact.  A SymFunc holds its coefficients as nonzero integer numerators
over one denominator d > 0, the least one (d and the numerators have no
common factor), so sums, products and basis changes run on ints against
the integer structure constants (characters, LR and Kronecker
coefficients).  The public view `terms` maps each partition to its
coefficient as a fractions.Fraction; it is read-only and is built on first
access.  Every coefficient given from outside passes through one coercion,
`_rational`, which takes ints, Fractions and rational strings and refuses
floats, which are already rounded.

Between s and p, conversions route through characters: s_lam =
sum_rho chi^lam(rho)/z_rho p_rho and p_rho = sum_lam chi^lam(rho) s_lam.
A character row (over the classes rho) and a character column (over the
shapes lam) are dense int tuples aligned with `partitions_of(n)`, one
`coeffs.mn_character` entry each, so the terms of one degree are summed
as dense vectors, not one dict update per term.  s goes to h and e by
expanding the Jacobi-Trudi determinant along its first column, and h_lam
and e_lam come back to s as products of one-row (one-column) Schur
functions; h and e reach p by way of s.  The product and skew tables
count Littlewood-Richardson fillings of one skew shape each, with free
content, so they enumerate the terms of the answer; a product s_lam s_mu
is the skew Schur function of a disconnected shape with components lam
and mu.  The Kronecker product is diagonal on power sums,
p_lam * p_mu = delta_{lam,mu} z_lam p_lam, so its table takes dot
products of character rows.  Products, skewing, Kronecker products and
the straightened Kronecker family KB are bilinear lookups in memoized
tables of Schur structure constants keyed by two partitions
(`_schur_mul_terms`, `_schur_skew_terms`, `_schur_kron_terms`,
`_schur_kb_terms`).  Each miss of a memo table is charged to the work
meter (`_work`), weighted by the work it does.
"""

import itertools
import operator
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm
from types import MappingProxyType
from typing import NamedTuple, Optional

from . import _work
from . import coeffs
from . import partitions as pt

BASES = ("s", "h", "e", "p")


class SymFunc:
    """A sparse combination of basis elements with rational coefficients,
    stored as the integer numerators `_num` (partition -> nonzero int) over
    the least common denominator `_d`."""

    __slots__ = ("basis", "_d", "_num", "_terms")

    def __init__(self, basis, terms=()):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        data = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for parts, c in items:
            key = pt.make_partition(parts)
            c = _rational(c)
            if key in data:
                data[key] += c
            else:
                data[key] = c
        data = {k: c for k, c in data.items() if c}
        # reduced Fractions over the lcm of their denominators leave
        # numerators with no factor common to all of them and d
        d = lcm(*(c.denominator for c in data.values()))
        _init(self, basis, {k: c.numerator * (d // c.denominator)
                            for k, c in data.items()}, d)

    @classmethod
    def _trusted(cls, basis, num, d=1):
        """Build from a fresh dict of canonical partition -> nonzero int
        numerator, over any common denominator d > 0; the dict is kept, and
        divided through only when d and the numerators share a factor.  For
        internal code whose keys come from other SymFuncs or the memo tables
        and whose zeros are already dropped."""
        if d != 1:
            g = gcd(d, *num.values())
            if g != 1:
                d //= g
                num = {k: n // g for k, n in num.items()}
        self = object.__new__(cls)
        _init(self, basis, num, d)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    @property
    def terms(self):
        """Read-only mapping partition -> nonzero Fraction coefficient."""
        terms = self._terms
        if terms is None:
            d = self._d
            terms = MappingProxyType({k: Fraction(n, d) for k, n in self._num.items()})
            object.__setattr__(self, "_terms", terms)
        return terms

    def is_zero(self):
        return not self._num

    def degrees(self):
        return sorted({sum(k) for k in self._num})

    def max_degree(self):
        return max((sum(k) for k in self._num), default=0)

    def min_degree(self):
        return min((sum(k) for k in self._num), default=0)

    def homogeneous_component(self, n):
        return SymFunc._trusted(
            self.basis, {k: c for k, c in self._num.items() if sum(k) == n}, self._d
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
        if self.basis != other.basis:
            self, other = to_basis(self, "s"), to_basis(other, "s")
        return self._d == other._d and self._num == other._num

    __hash__ = None

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<SymFunc {render(self)}>"


def _init(f, basis, num, d):
    """Fill the slots of a new SymFunc, bypassing its __setattr__."""
    setattr_ = object.__setattr__
    setattr_(f, "basis", basis)
    setattr_(f, "_num", num)
    setattr_(f, "_d", d)
    setattr_(f, "_terms", None)


def _rational(c):
    """The exact rational c, as a Fraction: an int, a Fraction, or a
    rational string such as "-1/2".  A float is a TypeError: it is already
    rounded to a binary fraction (0.1 would become 3602879701896397/2**55)."""
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float; give an int, a "
                        f"Fraction or a string such as '1/10'")
    return Fraction(c)


def _ratio(c):
    """The rational c, as _rational reads it, as (numerator, denominator)
    in lowest terms, denominator > 0."""
    if isinstance(c, (int, Fraction)):
        return c.as_integer_ratio()
    return _rational(c).as_integer_ratio()


def _as_parts(parts):
    if isinstance(parts, int):
        return (parts,) if parts else ()
    return tuple(parts)


def _basis_element(basis, parts):
    return SymFunc._trusted(basis, {pt.make_partition(_as_parts(parts)): 1})


def schur(parts=()):
    return _basis_element("s", parts)


def h(parts):
    return _basis_element("h", parts)


def e(parts):
    return _basis_element("e", parts)


def p(parts):
    return _basis_element("p", parts)


def one():
    return schur(())


def zero(basis="s"):
    return SymFunc(basis)


def add(f, g):
    """Sum; operands in different bases are converted to Schur first."""
    if f.basis != g.basis:
        f, g = to_basis(f, "s"), to_basis(g, "s")
    d = lcm(f._d, g._d)
    out = {}
    _add_into(out, f._num.items(), d // f._d)
    _add_into(out, g._num.items(), d // g._d)
    return _from_ints(f.basis, out, d)


def scale(c, f):
    cn, cd = _ratio(c)
    if not cn:
        return SymFunc._trusted(f.basis, {})
    return SymFunc._trusted(
        f.basis, {k: cn * n for k, n in f._num.items()}, cd * f._d
    )


def linear_combination(terms):
    """Schur-basis sum of c * f over the (c, f) pairs of terms, built as
    one dict; f may be in any basis."""
    out, d = {}, 1
    for c, f in terms:
        cn, cd = _ratio(c)
        fs = to_basis(f, "s")
        d = _add_scaled(out, d, fs._num.items(), cn, cd * fs._d)
    return _from_ints("s", out, d)


def _add_scaled(out, d, pairs, c, q):
    """Add c/q * w for every (k, w) in pairs to the numerators out over the
    denominator d, and return their new denominator lcm(d, q); out is put
    over it in place first when it grows."""
    if d % q:
        m = q // gcd(d, q)
        for k in out:
            out[k] *= m
        d *= m
    _add_into(out, pairs, c * (d // q))
    return d


def _from_ints(basis, out, d=1):
    """The SymFunc with coefficients out[k] / d, for an integer dict out
    that may hold zeros."""
    return SymFunc._trusted(basis, {k: n for k, n in out.items() if n}, d)


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
    b s_mu of g; one `_bilinear_into` into an empty dict."""
    out = {}
    _bilinear_into(out, f._num.items(), g._num.items(), table)
    return _from_ints("s", out, f._d * g._d)


def _bilinear_into(out, xs, ys, table, c=1):
    """out[nu] += c * a * b * table(lam, mu)[nu] for every integer pair
    (lam, a) of xs, (mu, b) of ys and term (nu, t) of the table entry,
    in place; out may be left holding zeros.  ys is iterated once per pair
    of xs, so it is a view or a sequence.  The one bilinear loop of
    products, skewing, Kronecker products and KB, here and in the compiled
    operator words of `operators`."""
    get = out.get
    for lam, a in xs:
        ca = c * a
        for mu, b in ys:
            w = ca * b
            for nu, t in table(lam, mu):
                out[nu] = get(nu, 0) + w * t


# ---------------------------------------------------------------------------
# memoized structure-constant tables (all keyed by canonical partitions,
# all with int coefficients)

@cache
def _character_row(lam):
    """The character chi^lam as a tuple aligned with partitions_of(|lam|),
    one `coeffs.mn_character` entry per class rho, so that s_lam =
    sum_rho chi^lam(rho)/z_rho p_rho."""
    classes = pt.partitions_of(sum(lam))
    _work.charge(len(classes))
    return tuple(coeffs.mn_character(lam, rho) for rho in classes)


@cache
def _character_column(rho):
    """The characters at the class rho as a tuple aligned with
    partitions_of(|rho|), one `coeffs.mn_character` entry per shape lam,
    so that p_rho = sum_lam chi^lam(rho) s_lam."""
    shapes = pt.partitions_of(sum(rho))
    _work.charge(len(shapes))
    return tuple(coeffs.mn_character(lam, rho) for lam in shapes)


@cache
def _schur_mul_terms(lam, mu):
    """Schur expansion of s_lam s_mu: the skew table of the disconnected
    shape (mu_1+lam_1, ..., mu_m+lam_1, lam_1, ..., lam_l) / (lam_1^m),
    whose components are mu (bottom right) and lam (top left); a skew
    Schur function of a disconnected shape is the product of its
    components."""
    _work.charge()
    if not lam:
        return _schur_skew_terms(mu, ())
    top = lam[0]
    return _schur_skew_terms(tuple(x + top for x in mu) + lam, (top,) * len(mu))


@cache
def _schur_skew_terms(lam, mu):
    """Schur expansion of the skew function s_{lam/mu}: the coefficient of
    s_nu counts the LR fillings of lam/mu with content nu (SSYT whose
    reverse reading word is a lattice permutation), all enumerated at once
    with free content.  An entry of an LR filling is at most its row
    number (from 1), so len(lam) bounds the values.  Terms come in the
    reverse-lex order of partitions_of."""
    _work.charge()
    if not pt.contains(mu, lam):
        return ()
    # deferred import: tableaux imports this module
    from .tableaux import _fill, _ssyt_reading_cells

    cells = _ssyt_reading_cells(pt.SkewShape._trusted(lam, mu))
    out = {}
    for entries in _fill(cells, True, max_entry=len(lam), init_counts={}):
        # a lattice word uses every value from 1 to its largest
        content = Counter(entries.values())
        nu = tuple(map(content.__getitem__, range(1, len(content) + 1)))
        out[nu] = out.get(nu, 0) + 1
    return tuple((pt._intern(nu), out[nu]) for nu in sorted(out, reverse=True))


@cache
def _schur_kron_terms(lam, mu):
    """Schur expansion of s_lam * s_mu (Kronecker), via the p basis:
    g_{lam,mu,nu} = sum_rho chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho.
    The weights chi^lam(rho) chi^mu(rho) n!/z_rho are one dense vector
    over the classes, each g_nu times n! is its dot product with the
    character row of nu, and it is divided by n! once and checked to be
    integral.  Terms come in the reverse-lex order of partitions_of."""
    n = sum(lam)
    if n != sum(mu):
        return ()
    shapes = pt.partitions_of(n)
    _work.charge(len(shapes) * (1 + len(shapes) // 16))
    weights = [a * b * size for a, b, size in zip(
        _character_row(lam), _character_row(mu), coeffs.class_sizes(n))]
    n_fact = factorial(n)
    out = []
    for nu in shapes:
        c = sum(map(operator.mul, _character_row(nu), weights))
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
def _schur_kb_terms(lam, mu):
    """Schur expansion of KB_{s_lam}(s_mu) = sign * s_shape * s_mu, where
    (sign, shape) straightens (|mu| - |lam|, lam_1, lam_2, ...) by
    Jacobi-Trudi.  A +1 sign returns the Kronecker table's own tuple."""
    _work.charge()
    sign, shape = jacobi_trudi((sum(mu) - sum(lam),) + lam)
    if not sign:
        return ()
    terms = _schur_kron_terms(shape, mu)
    return terms if sign > 0 else tuple((nu, -c) for nu, c in terms)


@cache
def _he_to_schur(basis, lam):
    """Schur expansion of h_lam (basis "h") or e_lam (basis "e"): the
    product of the one-row Schur functions s_(k) = h_k (one-column
    s_(1^k) = e_k) through the product table, one part at a time, with
    every shorter prefix of lam memoized here as well."""
    if not lam:
        return (((), 1),)
    k = lam[-1]
    factor = (k,) if basis == "h" else (1,) * k
    prefix = _he_to_schur(basis, lam[:-1])
    _work.charge(len(prefix))
    out = {}
    for nu, c in prefix:
        _add_into(out, _schur_mul_terms(factor, nu), c)
    return tuple(sorted(out.items(), reverse=True))


def _to_p(f):
    """f in the p basis, by way of s for h and e: the character rows of the
    terms of each degree summed as one dense vector over the classes.  The
    coefficient of p_rho is a sum of terms over z_rho, which divides N! for
    the top degree N of f, so the numerators are put over d * N!, each
    class of degree n weighted by N!/n! times its size n!/z_rho."""
    if f.basis == "p":
        return f
    f = to_basis(f, "s")
    n_fact = factorial(f.max_degree())
    out = {}
    for n, acc in _dense_sums(f._num, _character_row).items():
        m = n_fact // factorial(n)
        for rho, c, size in zip(pt.partitions_of(n), acc, coeffs.class_sizes(n)):
            if c:
                out[rho] = c * size * m
    return SymFunc._trusted("p", out, f._d * n_fact)


def _p_to_s(num, d):
    """The Schur expansion of sum_rho num[rho] / d p_rho: the character
    columns of the classes of each degree summed as one dense vector over
    the shapes, since p_rho = sum_lam chi^lam(rho) s_lam."""
    out = {}
    for n, acc in _dense_sums(num, _character_column).items():
        for lam, c in zip(pt.partitions_of(n), acc):
            if c:
                out[lam] = c
    return SymFunc._trusted("s", out, d)


def _dense_sums(num, table):
    """Degree n -> the list sum of c * table(k) over the (k, c) of num with
    |k| = n, for a table of tuples aligned with partitions_of(n)."""
    sums = {}
    for k, c in num.items():
        vec = table(k)
        n = sum(k)
        acc = sums.get(n)
        if acc is None:
            sums[n] = [c * x for x in vec]
        else:
            sums[n] = [a + c * x for a, x in zip(acc, vec)]
    return sums


@cache
def _schur_to_h(lam):
    """h-expansion of s_lam, by the Laplace expansion of the Jacobi-Trudi
    determinant det(h_{lam_i+j-i}) along its first column (0-based rows).

    The minor of row i is again a Jacobi-Trudi determinant, of the
    partition (lam_0+1, ..., lam_{i-1}+1, lam_{i+1}, ...), so
    s_lam = sum_i (-1)^i h_{lam_i-i} s_minor with h_0 = 1.  The index
    lam_i - i strictly decreases, so the sum stops at its first negative
    one.  Every minor is memoized here like lam itself."""
    if not lam:
        return (((), 1),)
    out = {}
    for i, part in enumerate(lam):
        k = part - i
        if k < 0:
            break
        minor = tuple(x + 1 for x in lam[:i]) + lam[i + 1:]
        h_k = (((k,) if k else (), 1),)
        minor_h = _schur_to_h(minor)
        _work.charge(len(minor_h))
        _add_into(out, _union_product(minor_h, h_k).items(),
                  -1 if i % 2 else 1)
    return tuple((mu, c) for mu, c in out.items() if c)


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
        return _to_p(f)
    if f.basis == "s":
        fs = f
    elif f.basis == "p":
        fs = _p_to_s(f._num, f._d)
    else:
        out = {}
        for lam, c in f._num.items():
            _add_into(out, _he_to_schur(f.basis, lam), c)
        fs = _from_ints("s", out, f._d)
    if target == "s":
        return fs
    table = _schur_to_h if target == "h" else _schur_to_e
    out = {}
    for lam, c in fs._num.items():
        _add_into(out, table(lam), c)
    return _from_ints(target, out, fs._d)


def mul(f, g):
    """Ring product.  Schur basis uses LR coefficients; in the h, e and p
    bases the product of basis elements is the multiset union of parts."""
    if f.basis != g.basis:
        return mul(to_basis(f, "s"), to_basis(g, "s"))
    if f.basis == "s":
        return _bilinear(f, g, _schur_mul_terms)
    return _from_ints(
        f.basis, _union_product(f._num.items(), g._num.items()), f._d * g._d
    )


def hall_inner(f, g):
    """Hall inner product; Schur functions are orthonormal, <p_lam, p_mu> =
    z_lam delta."""
    a, b = _to_p(f), _to_p(g)
    if len(b._num) < len(a._num):
        a, b = b, a
    bn = b._num
    total = 0
    for rho, ca in a._num.items():
        cb = bn.get(rho)
        if cb is not None:
            total += ca * cb * pt.z_factor(rho)
    return Fraction(total, a._d * b._d)


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
    return SymFunc._trusted("s", dict(_schur_skew_terms(outer, inner)))


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
    return SymFunc._trusted("s", {shape: sg})


def shift_minus_one(f):
    """The substitution f[X-1]: expand in the p basis and send every p_k to
    p_k - 1.  The result is inhomogeneous of degree <= deg f."""
    fp = _to_p(f)
    out = {}
    for rho, c in fp._num.items():
        minus_one = [(((k,), 1), ((), -1)) for k in rho]
        _add_into(out, _union_product(*minus_one).items(), c)
    return _p_to_s(out, fp._d)


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
        obj["basis"], [(tuple(t["part"]), t["coef"]) for t in obj["terms"]]
    )
