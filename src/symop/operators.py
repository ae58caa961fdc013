"""The operator families on symmetric functions: multiplication U_f, its
adjoint D_f (skewing), Kronecker multiplication K_f, and the straightened
family KB_f, as formal words that can be evaluated or truncated to exact
rational matrices.

An OperatorExpr is a rational linear combination of words in the
generators; words are composed like functions, the rightmost generator
acts first.  Expressions are never normalized automatically.  Their
collected form (`_collected`: each generator's argument written in the
Schur basis, like words merged, zero words dropped) is a sufficient test
of equality: equal collected forms give equal values on every input.
Other equalities are decided extensionally (by matrices or by applying to
basis vectors).  The constructor and U, D, K, KB check what they are given;
sums, products and scalings of expressions put together words that are
already checked and check nothing again.

Everything runs on integers from the image to the rank.  An expression,
or a signed sum of expressions, is compiled into one list of words over
one denominator, each word an integer multiplier and its generators in
the order they act, each generator a memoized Schur table of symfunc and
its Schur numerators.  One kernel runs the words on the numerators of a
Schur function and adds them into one integer dict, with the bilinear
loop of each generator inline and the last generator of each word
writing straight into the dict; a step that meets one Schur term with a
one-term generator builds nothing, since the memoized table entry is its
next value and the scalar is carried to the last step: `apply` builds
its image from that dict, and `disagreements` decides an operator
identity on s_gamma by testing the dict of a compiled difference for
zero.  The rank of
a family of expressions is built one basis vector s_lam at a time: the
integer rows of the images on s_lam are pushed into one echelon of
sparse primitive integer rows, with no modulus and no float, and no
further basis vector is evaluated once the rank equals the number of
expressions.  The work meter (`_work`) is charged for each table miss,
each pair a step of a word multiplies out, each entry of the dense
matrix of `matrix_of` before it is allocated, and each image term and
row elimination of `stacked_rank`; so a budget bounds an application, a
truncated matrix and a rank like any other computation.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from . import _work
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

    @classmethod
    def _trusted(cls, words):
        """Build from a tuple of words already known to be clean, each a
        nonzero Fraction and a tuple of (kind, nonzero SymFunc), without
        checking them again.  For sums and products of expressions: a sum
        concatenates clean words, and a product of two nonzero Fractions is
        never zero."""
        self = object.__new__(cls)
        object.__setattr__(self, "words", words)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    def __add__(self, other):
        if isinstance(other, OperatorExpr):
            return OperatorExpr._trusted(self.words + other.words)
        return NotImplemented

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        """Composition when other is an OperatorExpr, scaling otherwise."""
        if isinstance(other, OperatorExpr):
            return OperatorExpr._trusted(tuple(
                (c1 * c2, w1 + w2)
                for c1, w1 in self.words
                for c2, w2 in other.words
            ))
        scalar = sf._rational(other)
        if not scalar:
            return OperatorExpr._trusted(())
        return OperatorExpr._trusted(tuple((scalar * c, w) for c, w in self.words))

    def __rmul__(self, other):
        return self * other

    def apply(self, g):
        """Evaluate on a symmetric function; linear in the expression and
        in g, with the value in the Schur basis.  The rightmost generator
        of each word acts first.  The expression is compiled into integer
        words over one denominator and every word is added into one integer
        dict by `_accumulate`, so the only SymFunc built is the result."""
        gs = sf.to_basis(g, "s")
        words, d = _compile([(1, self)])
        out = {}
        _accumulate(words, gs._num.items(), out)
        return sf._from_ints("s", out, d * gs._d)

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


# bits of a step's largest weight that cost about one unit more per pair
_BITS_PER_UNIT = 1024


def _step(kind, f):
    """The compiled step of the generator (kind, f): its memoized Schur
    table, whether the current value is the table's first argument, and
    the Schur pairs of f as numerators over f's own denominator f._d.  A
    change of basis to s has integer structure constants, so it never adds
    to the denominator, and f._d is a multiple of the Schur one."""
    table, value_first = _STEPS[kind]
    fs = sf.to_basis(f, "s")
    pairs = fs._num.items()
    if fs._d != f._d:
        m = f._d // fs._d
        pairs = [(lam, n * m) for lam, n in pairs]
    return table, value_first, pairs


def _collected(expr):
    """The collected form of expr: {word: nonzero coefficient}, each word a
    tuple of letters (kind, lam) in the order of expr's words, the letter
    standing for the generator at s_lam.  Every generator is linear in its
    argument, so each word is expanded over the Schur terms of its
    arguments, as `_step` expands them before it evaluates, and like words
    are merged.  Two expressions with equal collected forms therefore give
    the same value on every input.  The converse fails: U(s_()) and the
    empty word are both the identity, yet they collect apart."""
    out = {}
    for coef, word in expr.words:
        n, q = coef.as_integer_ratio()
        terms = [((), n)]
        for kind, f in word:
            fs = sf.to_basis(f, "s")
            q *= fs._d
            terms = [(w + ((kind, lam),), m * c)
                     for w, m in terms for lam, c in fs._num.items()]
        for w, m in terms:
            out[w] = out.get(w, 0) + (m if q == 1 else Fraction(m, q))
    return {w: c for w, c in out.items() if c}


def _top_bits(pairs):
    """The bit length of the largest |n| over the (key, int n) pairs."""
    return max((abs(n) for _k, n in pairs), default=0).bit_length()


def _compile(signed):
    """The words of the sum of sign * e over the (sign, e) pairs of signed,
    signs +-1, as (words, d): every word (m, steps) has its steps in the
    order they act and an integer multiplier m over the one denominator d
    of all words.  A word n/q * f_r ... f_1 is n * (its run on numerators)
    / (q * f_1._d ... f_r._d), so d is the lcm of those denominators and m
    is n times d over its own.  Each step is compiled by `_step`."""
    parts = []
    for sign, expr in signed:
        for coef, word in expr.words:
            n, q = coef.as_integer_ratio()
            steps = []
            for kind, f in reversed(word):
                if kind not in _STEPS:
                    raise ValueError(f"unknown generator {kind!r}")
                steps.append(_step(kind, f))
                q *= f._d
            parts.append((sign * n, q, steps))
    d = lcm(*[q for _n, q, _steps in parts])
    return [(n * (d // q), steps) for n, q, steps in parts], d


def _accumulate(words, xs, out):
    """Run every compiled word (m, steps) on the integer pairs xs and add m
    times its value into out, in place; out may be left holding zeros.
    A value is a sequence of nonzero pairs times a carried integer scalar
    s, which starts at 1.  Each step adds s * a * b * table(lam, mu)[nu]
    into nu for every pair of a term (lam, a) of its first argument and
    (mu, b) of its second, the first argument's terms in the outer loop,
    as `symfunc._bilinear` does, here run inline.  A step but the last
    whose value and generator are one pair each takes the memoized table
    entry itself as the next value and multiplies s by a * b, since a
    table entry holds distinct nonzero terms;
    any other step but the last builds the next value as a fresh list of
    nonzero pairs and resets s to 1.  A value that becomes zero ends the
    word, and the last step adds m * s times its terms straight into out;
    a word with no steps is the identity.  Either way the terms reach out
    in the same order.

    Under a budget, each step but the one-pair ones charges the work meter
    (`_work`) before its loop: two units per pair, and one more per pair
    for every `_BITS_PER_UNIT` bits of its largest weight, since the
    coefficients of a long word grow with every step."""
    metered = _work.metered()
    for m, steps in words:
        last = len(steps)
        if not last:
            sf._add_into(out, xs, m)
            continue
        num, s = xs, 1
        for i, (table, value_first, ys) in enumerate(steps, 1):
            if i < last and len(num) == 1 and len(ys) == 1:
                ((lam, a),), ((mu, b),) = num, ys
                num = table(lam, mu) if value_first else table(mu, lam)
                if not num:
                    break
                s *= a * b
                continue
            acc, c = (out, m * s) if i == last else ({}, s)
            if metered:
                pairs = len(num) * len(ys)
                top = _top_bits(num) + _top_bits(ys) + c.bit_length()
                _work.charge(2 * pairs + pairs * top // _BITS_PER_UNIT)
            outer, inner = (num, ys) if value_first else (ys, num)
            get = acc.get
            for lam, a in outer:
                ca = c * a
                for mu, b in inner:
                    w = ca * b
                    for nu, t in table(lam, mu):
                        acc[nu] = get(nu, 0) + w * t
            if i < last:
                num = [(k, n) for k, n in acc.items() if n]
                if not num:
                    break
                s = 1


def disagreements(exprs, gammas):
    """The pairs (gamma, k), in the order of gammas, of the partitions
    gamma on which some exprs[k] (k >= 1) differs from exprs[0] when
    applied to s_gamma, k the first such index.  Each difference
    exprs[0] - exprs[k] is compiled once, and on s_gamma its words are
    added into one integer dict that is tested for zero, so no image is
    built."""
    base = exprs[0]
    diffs = [_compile([(1, base), (-1, e)])[0] for e in exprs[1:]]
    found = []
    for gamma in gammas:
        xs = ((pt._canonical(gamma), 1),)
        for k, words in enumerate(diffs, 1):
            acc = {}
            _accumulate(words, xs, acc)
            if any(acc.values()):
                found.append((gamma, k))
                break
    return found


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


def _check_degree(top, cod):
    """An image of degree top above the codomain bound cod is an
    AssertionError."""
    if top > cod:
        raise AssertionError(f"image degree {top} exceeds codomain bound {cod}")


def matrix_of(expr, dom_max_degree, cod_max_degree=None):
    """Exact truncated matrix: column lam holds the Schur coordinates of
    expr(s_lam).  The codomain bound defaults to the domain bound plus the
    largest degree shift of the expression.  Each entry of the dense
    matrix is charged to the work meter before the matrix is allocated."""
    if cod_max_degree is None:
        cod_max_degree = dom_max_degree + max(0, expr.max_degree_shift())
    cols = pt.partitions_upto(dom_max_degree)
    rows = pt.partitions_upto(cod_max_degree)
    _work.charge(len(rows) * len(cols))
    row_index = {mu: i for i, mu in enumerate(rows)}
    entries = [[Fraction(0)] * len(cols) for _ in rows]
    for j, lam in enumerate(cols):
        image = expr.apply(sf.schur(lam))
        _check_degree(image.max_degree(), cod_max_degree)
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


def _push_row(pivots, row):
    """Push the sparse primitive integer row {column: int} into the echelon
    `pivots`, which maps each leading column to the one primitive row whose
    smallest column it is; afterwards len(pivots) is the rank of all the
    rows pushed so far.

    At the row's smallest column, with no pivot there the row becomes its
    pivot.  Otherwise, of the row and the pivot, the one whose entry p
    there is smaller in absolute value is the pivot (a new row replaces the
    old pivot only when strictly smaller), and the other, with entry a
    there, becomes (p*row - a*pivot) / gcd(p, a), divided by the gcd of its
    entries, which clears the column; that is repeated at its next smallest
    column until it is zero or lands in a free column.  Each step
    multiplies a row by a nonzero integer, adds a multiple of another row
    or divides by a content, so the span and the rank are exact; there is
    no modulus and no float.  An elimination charges a quarter of a work
    unit per entry of its two rows."""
    while True:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            pivots[col] = row
            return
        if abs(row[col]) < abs(pivot[col]):
            pivots[col], row, pivot = row, pivot, row
        _work.charge((len(row) + len(pivot)) // 4)
        p, a = pivot[col], row[col]
        g = gcd(p, a)
        pg, ag = p // g, a // g
        # pg * a - ag * p == 0: the column drops out with the zeros
        new = dict(row) if pg == 1 else {k: pg * x for k, x in row.items()}
        for k, x in pivot.items():
            new[k] = new.get(k, 0) - ag * x
        new = {k: x for k, x in new.items() if x}
        if not new:
            return
        row = _primitive(new)


def stacked_rank(exprs, dom_max_degree):
    """Rank of the vectorized truncated matrices of the expressions, all
    sharing one codomain bound.

    The stacked matrix has one column per expression and one row per entry
    (lam, mu), built one basis vector s_lam at a time in (degree,
    reverse-lex) order, the partitions of each degree enumerated only once
    the ones below it are done.  Each expression is compiled once, its
    word multipliers put over the one denominator of all the expressions,
    and at s_lam its words are added into one integer dict by
    `_accumulate`, so no image is built and no Fraction either; an image
    of degree above the codomain bound is an AssertionError.  Each nonzero
    image term is charged to the work meter.  Each row (lam, mu) is
    divided by its content, and each row not seen before is pushed into
    one echelon by `_push_row`; zero and repeated rows do not change the
    row space, so the rank is exact.  The rank never exceeds the number of
    expressions, so once it reaches it no later basis vector is evaluated,
    nor are the partitions of a later degree enumerated."""
    exprs = list(exprs)
    if not exprs:
        return 0
    cod = dom_max_degree + max(max(0, e.max_degree_shift()) for e in exprs)
    compiled = [_compile([(1, e)]) for e in exprs]
    d = lcm(*[dk for _words, dk in compiled])
    compiled = [
        words if dk == d else [(m * (d // dk), steps) for m, steps in words]
        for words, dk in compiled
    ]
    pivots, seen = {}, set()
    degrees = map(pt.partitions_of, range(dom_max_degree + 1))
    for lam in chain.from_iterable(degrees):
        xs = ((lam, 1),)
        rows = {}
        for k, words in enumerate(compiled):
            image = {}
            _accumulate(words, xs, image)
            image = [(mu, n) for mu, n in image.items() if n]
            _work.charge(len(image))
            _check_degree(max((sum(mu) for mu, _n in image), default=0), cod)
            for mu, n in image:
                rows.setdefault(mu, {})[k] = n
        for row in rows.values():
            row = _primitive(row)
            key = tuple(row.items())
            if key in seen:
                continue
            seen.add(key)
            _push_row(pivots, row)
            if len(pivots) == len(exprs):
                return len(exprs)
    return len(pivots)


def independent(exprs, dom_max_degree):
    """True iff the truncated matrices are linearly independent over Q.

    Independence at a truncation certifies independence of the operators,
    and `stacked_rank` certifies it on the first basis vectors that reach
    full rank, so a larger truncation costs no more; a dependence is only
    evidence at this truncation, and every basis vector up to the bound is
    evaluated.
    """
    exprs = list(exprs)
    return stacked_rank(exprs, dom_max_degree) == len(exprs)
