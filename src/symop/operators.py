"""The operator families on symmetric functions: multiplication U_f, its
adjoint D_f (skewing), Kronecker multiplication K_f, and the straightened
family KB_f, as formal words that can be evaluated or truncated to exact
rational matrices.

An OperatorExpr is a rational linear combination of words in the
generators; words are composed like functions, the rightmost generator
acts first.  Expressions are never normalized automatically; equality of
operators is decided extensionally (by matrices or by applying to basis
vectors).
"""

from fractions import Fraction
from math import lcm

from . import partitions as pt
from . import symfunc as sf


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
            coef = Fraction(coef)
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
        return OperatorExpr((Fraction(other) * c, w) for c, w in self.words)

    def __rmul__(self, other):
        return self * other

    def apply(self, g, check=None):
        """Evaluate on a symmetric function; linear in the expression and
        in g.  The rightmost generator of each word acts first.  A given
        check is called as check(kind, f, h) before each generator (kind, f)
        acts on the current value h, and may raise to refuse the step."""
        if len(self.words) == 1 and self.words[0][0] == 1:
            return sf.to_basis(_apply_word(self.words[0][1], g, check), "s")
        return sf.linear_combination(
            (coef, _apply_word(word, g, check)) for coef, word in self.words
        )

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


def _apply_word(word, g, check=None):
    for kind, f in reversed(word):
        if check is not None:
            check(kind, f, g)
        if kind == "U":
            g = sf.mul(f, g)
        elif kind == "D":
            g = sf.skew(g, f)
        elif kind == "K":
            g = sf.kronecker(f, g)
        elif kind == "KB":
            g = apply_KB(f, g)
        else:
            raise ValueError(f"unknown generator {kind!r}")
        if g.is_zero():
            break
    return g


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
    """(lam, mu, c) for every Schur coefficient c of s_mu in expr(s_lam),
    over the partitions lam of size <= dom in (degree, reverse-lex) order.
    An image of degree above cod is an AssertionError."""
    for lam in pt.partitions_upto(dom):
        image = sf.to_basis(expr.apply(sf.schur(lam)), "s")
        for mu, c in image.terms.items():
            if sum(mu) > cod:
                raise AssertionError(
                    f"image degree {sum(mu)} exceeds codomain bound {cod}"
                )
            yield lam, mu, c


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
    for lam, mu, c in _images(expr, dom_max_degree, cod_max_degree):
        entries[row_index[mu]][col_index[lam]] = c
    return TruncatedMatrix(dom_max_degree, cod_max_degree, cols, rows, entries)


def _integer_rank(rows):
    """Rank of an exact rational matrix by fraction-free (Bareiss)
    elimination on a common-denominator integer copy."""
    if not rows or not rows[0]:
        return 0
    mat = []
    for row in rows:
        denom = lcm(*[x.denominator for x in row])
        mat.append([int(x * denom) for x in row])
    n, m = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(m):
        pivot = next((r for r in range(rank, n) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for r in range(rank + 1, n):
            row = mat[r]
            a = row[col]
            for c in range(col + 1, m):
                q, rem = divmod(row[c] * p - a * prow[c], prev)
                if rem:
                    raise AssertionError("fraction-free elimination broke")
                row[c] = q
            row[col] = 0
        prev = p
        rank += 1
        if rank == n:
            break
    return rank


def stacked_rank(exprs, dom_max_degree):
    """Rank of the vectorized truncated matrices of the expressions, all
    sharing one codomain bound.

    The stacked matrix has one row per entry (mu, lam) and one column per
    expression.  Zero rows and repeated rows do not change its row space,
    so only the distinct nonzero rows are eliminated and the rank is
    exact."""
    exprs = list(exprs)
    if not exprs:
        return 0
    cod = dom_max_degree + max(max(0, e.max_degree_shift()) for e in exprs)
    rows = {}
    for k, e in enumerate(exprs):
        for lam, mu, c in _images(e, dom_max_degree, cod):
            rows.setdefault((lam, mu), [0] * len(exprs))[k] = c
    return _integer_rank(list(dict.fromkeys(map(tuple, rows.values()))))


def independent(exprs, dom_max_degree):
    """True iff the truncated matrices are linearly independent over Q.

    Independence at a truncation certifies independence of the operators;
    a dependence is only evidence at this truncation.
    """
    exprs = list(exprs)
    return stacked_rank(exprs, dom_max_degree) == len(exprs)
