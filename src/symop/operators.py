"""The operator families on symmetric functions: multiplication U_f, its
adjoint D_f (skewing), Kronecker multiplication K_f, and the straightened
family KB_f, as formal words that can be evaluated or truncated to exact
rational matrices.

An OperatorExpr is a rational linear combination of words in the
generators; words are composed like functions, the rightmost generator
acts first.  Expressions are never normalized automatically; equality of
operators is decided extensionally (by matrices or by applying to basis
vectors).

Everything runs on integers from the image to the rank.  A word is
evaluated as integer numerators over one denominator, each generator a
bilinear lookup in one of the four memoized Schur tables of symfunc, and
an expression sums its words into one integer accumulator.  The rank of
a family of expressions eliminates sparse primitive integer rows, with
no modulus and no float.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from . import partitions as pt
from . import symfunc as sf

# generator kind -> (memoized Schur table, whether the current value is
# the table's first argument): D_f(g) = s_{g/f}, the others are f * g
_STEPS = {
    "U": (sf._schur_mul_terms, False),
    "D": (sf._schur_skew_terms, True),
    "K": (sf._schur_kron_terms, False),
    "KB": (sf._schur_kb_terms, False),
}


def _as_symfunc(f):
    if isinstance(f, sf.SymFunc):
        return f
    return sf.schur(f)


class OperatorExpr:
    """Formal sum of scaled words in the generators U, D, K, KB."""

    __slots__ = ("words",)

    def __init__(self, words=()):
        # words: iterable of (Fraction, tuple of (kind, SymFunc))
        cleaned = []
        for coef, word in words:
            coef = sf._rational(coef)
            if coef and all(not f.is_zero() for _k, f in word):
                cleaned.append((coef, tuple(word)))
        object.__setattr__(self, "words", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    def __add__(self, other):
        if isinstance(other, OperatorExpr):
            return OperatorExpr(self.words + other.words)
        return NotImplemented

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        """Composition when other is an OperatorExpr, scaling otherwise."""
        if isinstance(other, OperatorExpr):
            return OperatorExpr(
                (c1 * c2, w1 + w2)
                for c1, w1 in self.words
                for c2, w2 in other.words
            )
        scalar = sf._rational(other)
        return OperatorExpr((scalar * c, w) for c, w in self.words)

    def __rmul__(self, other):
        return self * other

    def apply(self, g, check=None):
        """Evaluate on a symmetric function; linear in the expression and
        in g, with the value in the Schur basis.  The rightmost generator
        of each word acts first.  Each word carries its value as integer
        numerators over one denominator from one generator to the next, and
        the words are summed into one accumulator, so the only SymFunc
        built is the result.  A given check is called as check(kind, f, h)
        before each generator (kind, f) acts on the current value h (a
        Schur-basis SymFunc, built for the check only), and may raise to
        refuse the step."""
        gs = sf.to_basis(g, "s")
        out, d_out = {}, 1
        for coef, word in self.words:
            num, d = gs._num, gs._d
            for kind, f in reversed(word):
                step = _STEPS.get(kind)
                if step is None:
                    raise ValueError(f"unknown generator {kind!r}")
                if check is not None:
                    check(kind, f, sf.SymFunc._trusted("s", num, d))
                table, value_first = step
                fs = sf.to_basis(f, "s")
                if value_first:
                    num = sf._bilinear_ints(num.items(), fs._num.items(), table)
                else:
                    num = sf._bilinear_ints(fs._num.items(), num.items(), table)
                d *= fs._d
                if not num:
                    break
            cn, cd = coef.as_integer_ratio()
            d_out = sf._add_scaled(out, d_out, num.items(), cn, cd * d)
        return sf._from_ints("s", out, d_out)

    def max_degree_shift(self):
        """Largest possible degree raise over all words; 0 for the zero
        expression.  U raises by at most deg f, D lowers by at least the
        minimal degree of f, K and KB preserve degree."""
        best = 0
        for _coef, word in self.words:
            shift = 0
            for kind, f in word:
                if kind == "U":
                    shift += f.max_degree()
                elif kind == "D":
                    shift -= f.min_degree()
            best = max(best, shift)
        return best

    def __repr__(self):
        if not self.words:
            return "<OperatorExpr 0>"
        parts = []
        for coef, word in self.words:
            gens = "".join(f"{k}({f})" for k, f in word) or "Id"
            parts.append(f"{coef}*{gens}")
        return "<OperatorExpr " + " + ".join(parts) + ">"


def identity_op():
    return OperatorExpr([(Fraction(1), ())])


def zero_op():
    return OperatorExpr()


def U(f):
    return OperatorExpr([(Fraction(1), (("U", _as_symfunc(f)),))])


def D(f):
    return OperatorExpr([(Fraction(1), (("D", _as_symfunc(f)),))])


def K(f):
    return OperatorExpr([(Fraction(1), (("K", _as_symfunc(f)),))])


def KB(f):
    return OperatorExpr([(Fraction(1), (("KB", _as_symfunc(f)),))])


def apply(expr, g):
    return expr.apply(g)


def apply_KB(f, g):
    """KB_f(g).  For f = s_lam and homogeneous g of degree n this is
    sign * (s_shape * g) where (sign, shape) straightens the sequence
    (n - |lam|, lam_1, lam_2, ...); extended bilinearly in f and over the
    homogeneous components of g.  Straightening may yield zero or a sign,
    never an error, even when n < |lam|.  Each pair (s_lam, s_mu) is one
    entry of the memoized table `symfunc._schur_kb_terms`."""
    return sf._bilinear(
        sf.to_basis(f, "s"), sf.to_basis(g, "s"), sf._schur_kb_terms
    )


def kb_via_gamma(f, g):
    """KB_f(g) computed through the vertex operator route: the degree-n
    component of sigma[X] f[X-1], Kronecker-multiplied into the degree-n
    component of g.  Cross-check for apply_KB."""
    gs = sf.to_basis(g, "s")
    return sf.linear_combination(
        (1, sf.kronecker(sf.gamma1_component(f, n), gs.homogeneous_component(n)))
        for n in gs.degrees()
    )


def kb_as_UD(f, max_deg):
    """Expansion of KB_f in the multiplication/skewing subalgebra:

        KB_f = sum over lam of U(f[X-1] * s_lam) D(s_lam)

    truncated to |lam| <= max_deg, which is exact on inputs of degree up
    to max_deg."""
    fm1 = sf.shift_minus_one(f)
    words = []
    for lam in pt.partitions_upto(max_deg):
        coef_f = sf.kronecker(fm1, sf.schur(lam))
        if coef_f.is_zero():
            continue
        words.append(
            (Fraction(1), (("U", coef_f), ("D", sf.schur(lam))))
        )
    return OperatorExpr(words)


class TruncatedMatrix:
    """Exact matrix of an operator on the Schur basis truncated by degree.

    Columns are indexed by partitions of size <= dom_bound, rows by
    partitions of size <= cod_bound, both in (degree, reverse-lex) order.
    """

    __slots__ = ("dom_bound", "cod_bound", "cols", "rows", "entries")

    def __init__(self, dom_bound, cod_bound, cols, rows, entries):
        object.__setattr__(self, "dom_bound", dom_bound)
        object.__setattr__(self, "cod_bound", cod_bound)
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedMatrix is immutable")

    def entry(self, row_part, col_part):
        return self.entries[self.rows.index(tuple(row_part))][
            self.cols.index(tuple(col_part))
        ]

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedMatrix)
            and self.cols == other.cols
            and self.rows == other.rows
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.rows, self.entries))

    def to_json(self):
        return {
            "dom_bound": self.dom_bound,
            "cod_bound": self.cod_bound,
            "cols": [list(c) for c in self.cols],
            "rows": [list(r) for r in self.rows],
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    def __repr__(self):
        return (
            f"<TruncatedMatrix {len(self.rows)}x{len(self.cols)} "
            f"dom<={self.dom_bound} cod<={self.cod_bound}>"
        )


def _images(expr, dom, cod):
    """(lam, expr(s_lam)) for every partition lam of size <= dom in
    (degree, reverse-lex) order, the image in the Schur basis.  An image of
    degree above cod is an AssertionError."""
    for lam in pt.partitions_upto(dom):
        image = expr.apply(sf.schur(lam))
        if image.max_degree() > cod:
            raise AssertionError(
                f"image degree {image.max_degree()} exceeds codomain bound {cod}"
            )
        yield lam, image


def matrix_of(expr, dom_max_degree, cod_max_degree=None):
    """Exact truncated matrix: column lam holds the Schur coordinates of
    expr(s_lam).  The codomain bound defaults to the domain bound plus the
    largest degree shift of the expression."""
    if cod_max_degree is None:
        cod_max_degree = dom_max_degree + max(0, expr.max_degree_shift())
    cols = pt.partitions_upto(dom_max_degree)
    rows = pt.partitions_upto(cod_max_degree)
    col_index = {lam: j for j, lam in enumerate(cols)}
    row_index = {mu: i for i, mu in enumerate(rows)}
    entries = [[Fraction(0)] * len(cols) for _ in rows]
    for lam, image in _images(expr, dom_max_degree, cod_max_degree):
        j = col_index[lam]
        for mu, c in image.terms.items():
            entries[row_index[mu]][j] = c
    return TruncatedMatrix(dom_max_degree, cod_max_degree, cols, rows, entries)


def _primitive(row):
    """The sparse row {column: nonzero int} divided by the gcd of its
    entries."""
    g = gcd(*row.values())
    if g != 1:
        row = {k: x // g for k, x in row.items()}
    return row


def _integer_rank(rows):
    """Rank of an exact rational matrix, given as rows that are dense
    sequences or mappings column -> entry, the entries ints or Fractions.

    Each nonzero row becomes a sparse primitive integer row {column: int}
    (zero rows are dropped).  Then, column by column from the smallest,
    the pivot is a row with the smallest |entry| p there (the shortest
    such row); every other row with an entry a there becomes
    (p*row - a*pivot) / gcd(p, a), divided by the gcd of its entries,
    which clears the column.  The pivot leaves the matrix as one unit of
    rank, rows that become zero are dropped, and rows with no entry in the
    column are not touched: the rows wait in buckets by their smallest
    column, since every column before it is already cleared.  Each step
    multiplies a row by a nonzero integer, adds a multiple of another row
    or divides by a content, so the rank is exact; there is no modulus and
    no float."""
    by_lead = {}
    for row in rows:
        pairs = row.items() if isinstance(row, Mapping) else enumerate(row)
        row = {k: x for k, x in pairs if x}
        if row:
            d = lcm(*(x.denominator for x in row.values()))
            row = {k: x.numerator * (d // x.denominator) for k, x in row.items()}
            by_lead.setdefault(min(row), []).append(_primitive(row))
    rank = 0
    while by_lead:
        col = min(by_lead)
        hits = by_lead.pop(col)
        pivot = min(hits, key=lambda row: (abs(row[col]), len(row)))
        p = pivot[col]
        for row in hits:
            if row is pivot:
                continue
            a = row[col]
            g = gcd(p, a)
            pg, ag = p // g, a // g
            # pg * a - ag * p == 0: the column drops out with the zeros
            new = dict(row) if pg == 1 else {k: pg * x for k, x in row.items()}
            for k, x in pivot.items():
                new[k] = new.get(k, 0) - ag * x
            new = {k: x for k, x in new.items() if x}
            if new:
                by_lead.setdefault(min(new), []).append(_primitive(new))
        rank += 1
    return rank


def stacked_rank(exprs, dom_max_degree):
    """Rank of the vectorized truncated matrices of the expressions, all
    sharing one codomain bound.

    The stacked matrix has one row per entry (lam, mu) and one column per
    expression.  Its entries are read from the integer numerators of the
    images, and a row with an entry from an image over a denominator is
    put over the lcm of its own denominators, with no Fraction built.
    Zero rows and repeated rows do not change the row space, so only the
    distinct nonzero rows, in their first order, are eliminated and the
    rank is exact."""
    exprs = list(exprs)
    if not exprs:
        return 0
    cod = dom_max_degree + max(max(0, e.max_degree_shift()) for e in exprs)
    rows, dens = {}, {}
    for k, e in enumerate(exprs):
        for lam, image in _images(e, dom_max_degree, cod):
            if image._d != 1:
                dens[k, lam] = image._d
            for mu, n in image._num.items():
                rows.setdefault((lam, mu), {})[k] = n
    if dens:
        for (lam, _mu), row in rows.items():
            ds = [dens.get((k, lam), 1) for k in row]
            m = lcm(*ds)
            for k, d in zip(row, ds):
                row[k] *= m // d
    distinct = dict.fromkeys(tuple(row.items()) for row in rows.values())
    return _integer_rank([dict(row) for row in distinct])


def independent(exprs, dom_max_degree):
    """True iff the truncated matrices are linearly independent over Q.

    Independence at a truncation certifies independence of the operators;
    a dependence is only evidence at this truncation.
    """
    exprs = list(exprs)
    return stacked_rank(exprs, dom_max_degree) == len(exprs)
