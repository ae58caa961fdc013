"""Skew tableaux: enumeration, reading words, jeu de taquin, and the rules
built on them (skew Pieri, skew Littlewood-Richardson, skew corners).

French convention everywhere: row 0 is the bottom row.  An SSYT has rows
weakly increasing left to right and columns strictly increasing bottom to
top.  An ASSYT (anti-semistandard tableau) has rows strictly decreasing and
columns weakly decreasing going up; equivalently, transposing and rotating
by 180 degrees turns it into an SSYT.

SSYT and ASSYT share one base class, which validates every tableau when it
is built, in O(cells): each key must be an integer cell of the shape,
there must be as many keys as cells, every entry must be a positive
integer, and each cell is compared with its right and upper neighbours.
The two classes differ only in which of those comparisons is strict.  The
public entry points (the SSYT and ASSYT constructors, jdt_slide and
jdt_case) validate every input.  The internal exhaustive check
verify_jdt_bijection trusts the entry dicts that _fill yields, which are
semistandard by construction: it slides them in place with the same
_slide as jdt_slide and builds a tableau only to report a failure.

The skew Littlewood-Richardson rule runs one enumeration, the private
_skew_lr_fillings, with three views of it.  skew_lr_pairs wraps its entry
dicts in validated ASSYT/SSYT pairs, the explicit bijection.
skew_lr_terms and skew_lr_product build no tableau: the terms are the
signed shapes of the pairs, in the same order, and the product counts the
fillings with their signs per shape and adds one memoized skew table per
distinct shape.
"""

from collections import Counter
from functools import cache

from . import _work
from . import partitions as pt
from . import symfunc as sf
from .partitions import Cell, SkewShape
from .reporting import Failure, VerificationReport


def _checked_entries(shape, entries):
    """Entries keyed by Cell, after checking that they are positive
    integers covering the shape exactly.

    Every key must be a cell of the shape with int coordinates, and there
    must be as many keys as cells; distinct keys then cover the shape.
    """
    outer, inner = shape.outer, shape.inner
    nrows, ninner = len(outer), len(inner)
    out = {}
    for c, v in entries.items():
        if type(c) is not Cell:
            c = Cell(*c)
        r, col = c
        if not (
            type(r) is int and type(col) is int and 0 <= r < nrows
            and (inner[r] if r < ninner else 0) <= col < outer[r]
        ):
            raise ValueError("entries do not cover the shape exactly")
        out[c] = v if type(v) is int else pt._as_integer(v)
    if len(out) != shape.size:
        raise ValueError("entries do not cover the shape exactly")
    for cell, v in out.items():
        if v < 1:
            raise ValueError(f"entry {v} at {cell} not positive")
    return out


class _Tableau:
    """A validated filling of a skew shape, immutable.  Each cell is tested
    against its right neighbour by `v > right` and against the cell above
    by `v >= above`; a subclass states, in _row_rule and _col_rule, whether
    the test being true is the violation (True) or the requirement (False),
    and the message of the violation."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        entries = _checked_entries(shape, entries)
        get = entries.get
        (row_bad, row_msg), (col_bad, col_msg) = self._row_rule, self._col_rule
        for cell, v in entries.items():
            r, c = cell
            right = get((r, c + 1))
            if right is not None and (v > right) is row_bad:
                raise ValueError(f"{row_msg} at {cell}")
            above = get((r + 1, c))
            if above is not None and (v >= above) is col_bad:
                raise ValueError(f"{col_msg} at {cell}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def content(self):
        counts = Counter(self.entries.values())
        return tuple(counts[v] for v in range(1, max(counts, default=0) + 1))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.shape, frozenset(self.entries.items())))


class SSYT(_Tableau):
    """Semistandard filling of a skew shape."""

    __slots__ = ()
    _row_rule = (True, "row not weakly increasing")
    _col_rule = (True, "column not strictly increasing")

    def __repr__(self):
        # top row first; the cells of the inner shape show as "."
        get = self.entries.get
        rows = [
            " ".join(str(get((r, c), ".")) for c in range(width))
            for r, width in enumerate(self.shape.outer)
        ]
        return f"<SSYT {self.shape} [{' | '.join(reversed(rows))}]>"


class ASSYT(_Tableau):
    """Anti-semistandard filling: rows strictly decreasing, columns weakly
    decreasing bottom to top."""

    __slots__ = ()
    _row_rule = (False, "row not strictly decreasing")
    _col_rule = (False, "column not weakly decreasing")

    def __repr__(self):
        return f"<ASSYT {self.shape} {sorted(self.entries.items())}>"


# Cells are interned, so all reading orders share one Cell per position.
_cell = cache(Cell)


def _ssyt_reading_cells(shape):
    """Rows bottom to top, right to left within each row."""
    cells = []
    for r in range(len(shape.outer)):
        lo = pt.part_at(shape.inner, r)
        cells.extend(_cell(r, c) for c in range(shape.outer[r] - 1, lo - 1, -1))
    return cells


def _assyt_reading_cells(shape):
    """Columns right to left, reading up (bottom to top) each column."""
    by_col = {}
    for r, c in shape.cells():
        by_col.setdefault(c, []).append(r)
    cells = []
    for c in sorted(by_col, reverse=True):
        cells.extend(_cell(r, c) for r in sorted(by_col[c]))
    return cells


def reverse_reading_word(t):
    """Word of an SSYT: right-to-left along rows, rows bottom to top."""
    return tuple(t.entries[c] for c in _ssyt_reading_cells(t.shape))


def assyt_reverse_reading_word(t):
    """Word of an ASSYT: up the columns, columns right to left."""
    return tuple(t.entries[c] for c in _assyt_reading_cells(t.shape))


def transpose_rotate(t):
    """The SSYT obtained from an ASSYT by transposing, then rotating 180
    degrees inside the bounding box of the transposed shape."""
    outer_c = pt.conjugate(t.shape.outer)
    inner_c = pt.conjugate(t.shape.inner)
    ell = len(outer_c)
    w = outer_c[0] if outer_c else 0
    new_outer = tuple(w - pt.part_at(inner_c, ell - 1 - i) for i in range(ell))
    new_inner = tuple(w - pt.part_at(outer_c, ell - 1 - i) for i in range(ell))
    shape = SkewShape(new_outer, new_inner)
    entries = {
        Cell(ell - 1 - c, w - 1 - r): v for (r, c), v in t.entries.items()
    }
    return SSYT(shape, entries)


def is_lattice(word):
    return is_delta_lattice(word, ())

def is_delta_lattice(word, delta):
    """True iff prefixing the word with delta_1 ones, delta_2 twos, ... gives
    a word in which every prefix has at least as many i as i+1."""
    counts = {i: part for i, part in enumerate(delta, start=1)}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration

def _fill(cells, is_ssyt, content=None, max_entry=None, budget=None,
          init_counts=None):
    """Backtracking filler shared by the enumerators.

    Cells must come in the reading order of the tableau family, so the
    right neighbour and the neighbour below (SSYT), or the right neighbour
    and the one below in the column (ASSYT), are already placed when a cell
    is filled; the lattice condition can then be checked online.

    Yields entry dicts.  `content` fixes the multiplicity of each value
    exactly, `budget` only caps it, `max_entry` leaves it free.  When
    `init_counts` is given (value -> count), every prefix of the reading
    word must keep count(i) >= count(i+1) starting from those counts.

    The call and each filling are charged to the work meter (`_work`),
    by the cells and the values they run over.
    """
    ncells = len(cells)
    charge = _work.charge
    charge(2 + 3 * ncells)
    if content is not None:
        if sum(content) != ncells:
            return
        remaining = list(content)
        nvals = len(content)
    elif budget is not None:
        remaining = list(budget)
        nvals = len(budget)
    else:
        remaining = None
        nvals = max_entry
    counts = dict(init_counts) if init_counts is not None else None
    entries = {}
    # fitted to the time of the Schur skew tables: a filling climbs one
    # generator frame per cell, and dead ends try up to nvals values at each
    per_filling = 4 + ncells * (2 + nvals) // 32

    def rec(k):
        if k == ncells:
            charge(per_filling)
            yield dict(entries)
            return
        cell = cells[k]
        r, c = cell
        right = entries.get((r, c + 1))
        below = entries.get((r - 1, c))
        # the row and column conditions bound v to the range lo..hi
        if is_ssyt:
            lo = 1 if below is None else below + 1
            hi = nvals if right is None else min(right, nvals)
        else:
            lo = 1 if right is None else right + 1
            hi = nvals if below is None else min(below, nvals)
        for v in range(lo, hi + 1):
            if remaining is not None and remaining[v - 1] == 0:
                continue
            if counts is not None:
                if v > 1 and counts.get(v, 0) + 1 > counts.get(v - 1, 0):
                    continue
                counts[v] = counts.get(v, 0) + 1
            if remaining is not None:
                remaining[v - 1] -= 1
            entries[cell] = v
            yield from rec(k + 1)
            del entries[cell]
            if remaining is not None:
                remaining[v - 1] += 1
            if counts is not None:
                counts[v] -= 1

    yield from rec(0)


def _tableaux(cls, shape, **fill):
    """Every tableau of class cls on the shape, as `_fill` yields them."""
    is_ssyt = cls is SSYT
    cells = (_ssyt_reading_cells if is_ssyt else _assyt_reading_cells)(shape)
    return [cls(shape, d) for d in _fill(cells, is_ssyt, **fill)]


def enumerate_ssyt(shape, content):
    """All SSYT of the shape with the given content."""
    return _tableaux(SSYT, shape, content=tuple(map(pt._as_integer, content)))


def enumerate_ssyt_bounded(shape, max_entry):
    """All SSYT of the shape with entries in 1..max_entry."""
    return _tableaux(SSYT, shape, max_entry=max_entry)


def enumerate_assyt(shape, content):
    """All ASSYT of the shape with the given content."""
    return _tableaux(ASSYT, shape, content=tuple(map(pt._as_integer, content)))


def enumerate_assyt_bounded(shape, max_entry):
    return _tableaux(ASSYT, shape, max_entry=max_entry)


def enumerate_lr_fillings(shape, content):
    """SSYT of the shape and content whose reverse reading word is lattice."""
    content = tuple(map(pt._as_integer, content))
    return _tableaux(SSYT, shape, content=content, init_counts={})


def count_lr_fillings(shape, content):
    content = tuple(map(pt._as_integer, content))
    cells = _ssyt_reading_cells(shape)
    return sum(
        1 for _ in _fill(cells, True, content=content, init_counts={})
    )


# ---------------------------------------------------------------------------
# the two content-transposing bijections

def _relabel(t, cells, cls):
    """The tableau of class cls on t's shape in which the i-th appearance
    of each value, along the reading order cells, becomes i."""
    if not is_lattice(tuple(t.entries[c] for c in cells)):
        raise ValueError("reverse reading word is not a lattice permutation")
    seen = Counter()
    new = {}
    for cell in cells:
        v = t.entries[cell]
        seen[v] += 1
        new[cell] = seen[v]
    return cls(t.shape, new)


def psi(t):
    """Replace the i-th appearance (in reverse reading order) of the value j
    by i.  Sends a lattice SSYT to a lattice ASSYT of the same shape and
    conjugated content."""
    return _relabel(t, _ssyt_reading_cells(t.shape), ASSYT)


def psi_inverse(t):
    """Inverse of psi: on an ASSYT, the j-th appearance (in the ASSYT reading
    order) of the value i becomes j."""
    return _relabel(t, _assyt_reading_cells(t.shape), SSYT)


# ---------------------------------------------------------------------------
# jeu de taquin

def jdt_slide(t, hole):
    """One full jeu de taquin slide of t into the hole.

    A hole at a corner of the inner shape starts a forward slide (the hole
    migrates up/right and exits at a corner of the outer shape); a hole at
    an addable cell of the outer shape starts a reverse slide.  Returns
    (new tableau, vacated cell); when no neighbour can move at all the
    tableau is returned unchanged with vacated None.  The tie rule is that
    of `_slide`.
    """
    hole = Cell(*map(pt._as_integer, hole))
    outer, inner = t.shape.outer, t.shape.inner
    if pt.is_corner(inner, hole):
        step = 1
    elif pt.is_addable(outer, hole):
        step = -1
    else:
        raise ValueError(f"{hole} is not a legal slide position for {t.shape}")
    entries = dict(t.entries)
    vacated = _slide(entries, hole, step)
    if vacated is None:
        return t, None
    if step == 1:
        shape = SkewShape(pt.remove_cell(outer, vacated), pt.remove_cell(inner, hole))
    else:
        shape = SkewShape(pt.add_cell(outer, hole), pt.add_cell(inner, vacated))
    return SSYT(shape, entries), vacated


def _slide(entries, hole, step):
    """Slide the hole through a semistandard entry dict, in place, and
    return the cell it vacates, or None when no neighbour can move.

    Step 1 is a forward slide: the smaller of the right and upper
    neighbours moves into the hole.  Step -1 is a reverse slide: the larger
    of the left and lower neighbours moves in.  Tie rule: when the row and
    the column neighbour hold equal entries the column neighbour moves, in
    both directions.  This is the unique choice that preserves
    semistandardness and makes forward and reverse slides mutually inverse.
    """
    get = entries.get
    r, c = hole
    while True:
        row_v = get((r, c + step))
        col_v = get((r + step, c))
        if col_v is not None and (row_v is None or step * col_v <= step * row_v):
            entries[r, c] = col_v
            r += step
        elif row_v is not None:
            entries[r, c] = row_v
            c += step
        else:
            break
        del entries[r, c]
    if (r, c) == hole:
        return None
    return _cell(r, c)


# ---------------------------------------------------------------------------
# product rules

def skew_pieri_terms(k, shape):
    """Signed skew terms of s_(k) * s_{outer/inner}: for each i, add a
    (k-i)-horizontal strip above the outer shape and remove an i-vertical
    strip from the inner shape, with sign (-1)^i."""
    gamma, beta = shape.outer, shape.inner
    out = []
    for i in range(k + 1):
        sign = -1 if i % 2 else 1
        for bm in pt.vertical_strips_below(beta, i):
            for gp in pt.horizontal_strips_above(gamma, k - i):
                # bm <= beta <= gamma <= gp, all canonical
                out.append((sign, SkewShape._trusted(gp, bm)))
    return out


def skew_pieri(k, shape):
    """s_(k) * skew Schur function of the shape, Schur-expanded."""
    return sf.linear_combination(
        (sign, sf.skew_schur(sh)) for sign, sh in skew_pieri_terms(k, shape)
    )


def _skew_lr_fillings(a, b):
    """The one enumeration of the skew Littlewood-Richardson rule for the
    product of the skew Schur functions of shapes a and b, as raw entry
    dicts: no tableau is built and none is validated.

    Yields (sign, shape1, d1, shape2, d2, shape), one per pair of
    `skew_lr_pairs` and in its order: d1 holds the entries of its ASSYT
    of shape1 and d2 those of its SSYT of shape2, both semistandard by
    construction (`_fill`).  The loop runs over bm in
    `sub_partitions(b.inner)`, then the fillings d1, then gp in the
    `_growths` order, then the fillings d2; one shape object gp/bm is
    shared by every d2 of one (d1, gp).
    """
    alpha, delta = a.outer, a.inner
    gamma, beta = b.outer, b.inner
    nvals = len(alpha)
    target = [alpha[i] - pt.part_at(delta, i) for i in range(nvals)]
    if any(x < 0 for x in target):
        return
    total = sum(target)
    init_counts = {i: part for i, part in enumerate(delta, start=1)}
    # every shape below nests by construction: beta_minus <= beta <= gamma
    # <= gamma_plus, all canonical
    for beta_minus in pt.sub_partitions(beta):
        shape1 = SkewShape._trusted(beta, beta_minus)
        size1 = shape1.size
        if size1 > total:
            continue
        sign = -1 if size1 % 2 else 1
        cells1 = _assyt_reading_cells(shape1)
        growths = _growths(gamma, sum(gamma) + total - size1)
        for d1 in _fill(cells1, False, budget=target,
                        init_counts=init_counts):
            used = Counter(d1.values())
            remaining = tuple(target[i] - used.get(i + 1, 0) for i in range(nvals))
            counts1 = dict(init_counts)
            for v, m in used.items():
                counts1[v] = counts1.get(v, 0) + m
            for gamma_plus, shape2, cells2 in growths:
                shape = SkewShape._trusted(gamma_plus, beta_minus)
                for d2 in _fill(cells2, True, content=remaining,
                                init_counts=counts1):
                    yield sign, shape1, d1, shape2, d2, shape


def skew_lr_pairs(a, b):
    """Generate the tableau pairs of the skew Littlewood-Richardson rule for
    the product of the skew Schur functions of shapes a and b: the fillings
    of `_skew_lr_fillings`, in its order, as validated tableaux.

    Yields (sign, T1, T2, shape) where T1 is an ASSYT of shape b.inner/bm,
    T2 an SSYT of shape gp/b.outer, the combined content of the pair is the
    componentwise difference a.outer - a.inner, the reverse reading word of
    the pair (T1 first) is an a.inner-lattice permutation, the sign is
    (-1)^{|T1|} and the contributed term is the skew Schur function of
    shape = gp/bm.
    """
    for sign, shape1, d1, shape2, d2, shape in _skew_lr_fillings(a, b):
        yield sign, ASSYT(shape1, d1), SSYT(shape2, d2), shape


@cache
def _growths(gamma, n):
    """(gamma_plus, gamma_plus/gamma, its SSYT reading order) for every
    gamma_plus of size n containing gamma, in partitions_of order."""
    out = []
    parts = pt.partitions_of(n)
    _work.charge(len(parts) // 4)
    for gamma_plus in parts:
        if pt.contains(gamma, gamma_plus):
            shape2 = SkewShape._trusted(gamma_plus, gamma)
            out.append((gamma_plus, shape2, tuple(_ssyt_reading_cells(shape2))))
    return tuple(out)


def skew_lr_terms(a, b):
    """Signed skew-shape terms of the product, one per tableau pair, in the
    order of `skew_lr_pairs`; no tableau is built."""
    return [(sign, shape) for sign, _s1, _d1, _s2, _d2, shape
            in _skew_lr_fillings(a, b)]


def skew_lr_product(a, b):
    """Product of two skew Schur functions via the skew LR rule, collapsed
    to the Schur basis.  No tableau is built: the fillings are counted
    with their signs per shape gp/bm, and each shape whose count is
    nonzero adds that count times its memoized skew table
    (`symfunc._schur_skew_terms`) into one integer dict."""
    counts = {}
    for sign, _s1, _d1, _s2, _d2, shape in _skew_lr_fillings(a, b):
        counts[shape] = counts.get(shape, 0) + sign
    out = {}
    for shape, n in counts.items():
        if n:
            sf._add_into(out, sf._schur_skew_terms(shape.outer, shape.inner), n)
    return sf._from_ints("s", out)


def skew_corners_rhs(alpha, theta):
    """The corner-counting side of the skew Kronecker identity:

    (noc(alpha) - noc(theta) - 1) s_{alpha/theta}
      + sum over beta in addremove(alpha) of s_{beta/theta}
      - sum over phi in addremove(theta) of s_{alpha/phi}
    """
    alpha = pt.make_partition(alpha)
    theta = pt.make_partition(theta)
    if not pt.contains(theta, alpha):
        raise ValueError(f"{theta} not contained in {alpha}")
    coef = pt.noc(alpha) - pt.noc(theta) - 1
    return sf.linear_combination(
        [(coef, sf.skew_schur(alpha, theta))]
        + [(1, sf.skew_schur(beta, theta)) for beta in pt.addremove_set(alpha)]
        + [(-1, sf.skew_schur(alpha, phi)) for phi in pt.addremove_set(theta)]
    )


def _added_cell(small, big):
    """The unique cell of big/small when big covers small."""
    for r in range(len(big)):
        if pt.part_at(big, r) != pt.part_at(small, r):
            return Cell(r, pt.part_at(small, r))
    raise ValueError(f"{big} does not cover {small}")


def jdt_case(alpha, theta, gamma, delta, t):
    """Classify one slide of the corner bijection.

    t has shape gamma/delta with gamma covering alpha and delta covering
    theta, delta contained in alpha.  The slide starts at the cell
    delta/theta, and only the case (c) slides vacate the cell gamma/alpha.
    Returns ('a'|'b'|'c', slid tableau, vacated cell).
    """
    t2, vacated = jdt_slide(t, _added_cell(theta, delta))
    if vacated is None:
        return "a", t2, None
    if vacated == _added_cell(alpha, gamma):
        return "c", t2, vacated
    return "b", t2, vacated


# Memo tables of the exhaustive bijection check, one entry per shape.
_remove_cell = cache(pt.remove_cell)


@cache
def _reading_order(outer, inner):
    """SSYT reading order of outer/inner, for canonical nested partitions."""
    return tuple(_ssyt_reading_cells(SkewShape._trusted(outer, inner)))


def _reading_words(outer, inner, bound):
    """The values, in SSYT reading order, of every SSYT of outer/inner with
    entries in 1..bound."""
    cells = _reading_order(outer, inner)
    for entries in _fill(cells, True, max_entry=bound):
        yield tuple(map(entries.__getitem__, cells))


def _tableau_json(outer, inner, values):
    """The filling of outer/inner with the given values in SSYT reading
    order, as the JSON tableau that `symop jdt` reads."""
    # only a failure needs json, so `import symop` does not pay for it
    import json

    cells = _reading_order(outer, inner)
    return json.dumps({
        "shape": str(SkewShape._trusted(outer, inner)),
        "entries": sorted([r, c, v] for (r, c), v in zip(cells, values)),
    })


def _first_difference(got, want):
    """A key whose multiplicity differs between the two dicts: the first
    such key of want (a tableau the slides miss or hit the wrong number of
    times), else the first key of got alone."""
    for key, n in want.items():
        if got.get(key, 0) != n:
            return key
    return next(key for key in got if key not in want)


def verify_jdt_bijection(alpha, theta):
    """Exhaustively check the three-case jdt bijection behind the corner
    identity, with tableau entries bounded by |alpha|.

    Cases (a) and (b) together must biject onto the SSYT of shapes
    beta/theta over beta in addremove(alpha); every case (c) output of
    shape alpha/theta must occur exactly |add(alpha)| - |outside corners of
    theta not in alpha| times.

    It slides the trusted entry dicts of `_fill` (see the module
    docstring) and keys each outcome by its shape and its values in SSYT
    reading order.  A slid filling that is not one of the expected SSYT
    shows up as a mismatch.  A tableau is written out only for a failure:
    each failure names one from the symmetric difference of the slid and
    the expected tableaux, under the param "tableau", in the JSON form that
    `symop jdt` reads.
    """
    alpha = pt.make_partition(alpha)
    theta = pt.make_partition(theta)
    if not pt.contains(theta, alpha):
        raise ValueError(f"{theta} not contained in {alpha}")
    bound = max(sum(alpha), 1)
    # plain dicts of multiplicities: no zeros, so == compares them as
    # multisets
    got_ab = {}
    got_c = {}
    checked = 0
    for gamma in pt.add_set(alpha):
        for delta in pt.add_restrict(theta, alpha):
            b_cell = _added_cell(theta, delta)
            cells = _reading_order(gamma, delta)
            for entries in _fill(cells, True, max_entry=bound):
                checked += 1
                # case (a) moves nothing, and b_cell leaves gamma instead
                vacated = _slide(entries, b_cell, 1) or b_cell
                beta = _remove_cell(gamma, vacated)
                values = tuple(map(entries.__getitem__, _reading_order(beta, theta)))
                # case (c) vacates gamma/alpha, cases (a) and (b) any other cell
                if beta == alpha:
                    got_c[values] = got_c.get(values, 0) + 1
                else:
                    key = beta, values
                    got_ab[key] = got_ab.get(key, 0) + 1
    want_ab = {
        (beta, values): 1
        for beta in pt.addremove_set(alpha)
        if pt.contains(theta, beta)
        for values in _reading_words(beta, theta, bound)
    }
    k = len(pt.add_set(alpha)) - len(pt.add_complement(theta, alpha))
    want_c = dict.fromkeys(_reading_words(alpha, theta, bound), k) if k else {}
    params = {"alpha": alpha, "theta": theta}
    failures = []
    if got_ab != want_ab:
        beta, values = _first_difference(got_ab, want_ab)
        failures.append(
            Failure(
                {**params, "part": "cases a+b",
                 "tableau": _tableau_json(beta, theta, values)},
                f"{len(got_ab)} distinct slid tableaux (multiplicities "
                f"{sorted(got_ab.values())})",
                f"{len(want_ab)} expected tableaux, each once",
            )
        )
    if got_c != want_c:
        values = _first_difference(got_c, want_c)
        failures.append(
            Failure(
                {**params, "part": "case c",
                 "tableau": _tableau_json(alpha, theta, values)},
                f"case c multiset of size {sum(got_c.values())}",
                f"expected {k} copies of each of {len(want_c)} tableaux",
            )
        )
    return VerificationReport(
        identity="jdt_bijection",
        params=params,
        instances=checked,
        failures=failures,
    )
