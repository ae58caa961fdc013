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
jdt_case) validate every input.  Every enumeration runs the filler _fill
over a memoized reading order of _order, the only place that lists the
cells of a skew shape for filling; it asks the work budget for _fill's
first charge before it lists a cell.  The internal exhaustive check
verify_jdt_bijection trusts the value lists that _fill yields, which are
semistandard by construction: it slides them in place through a slot plan
cached per shape, with the same slide loop (_slide_slots) as jdt_slide,
and builds a tableau only to report a failure.

The skew Littlewood-Richardson rule runs one enumeration in two halves,
the private _skew_lr_halves: the outer half yields the ASSYT fillings
with their contents, and the inner half the SSYT completions of one
content.  There are three views of it.  skew_lr_pairs wraps the
fillings of both halves, run per ASSYT filling (_skew_lr_fillings), in
validated ASSYT/SSYT pairs, the explicit bijection.  skew_lr_terms and
skew_lr_product build no tableau: the terms are the signed shapes of the
pairs, in the same order, and the product counts the completions of each
content once, adds them with their signs per (gamma_plus, beta_minus)
and adds one memoized skew table per pair whose count is nonzero.
"""

from collections import Counter
from functools import cache
from operator import itemgetter

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

def _plan(cells, is_ssyt):
    """The neighbour plan of `_fill` for cells in the reading order of the
    tableau family: (lo_at, hi_at), where the values of cell k run from
    vals[lo_at[k]] + 1 to vals[hi_at[k]] over the values vals of the cells.

    lo_at[k] and hi_at[k] index the neighbours placed before cell k that
    bound it by the row and column conditions: the one below and the one
    to the right (SSYT), or the other way round (ASSYT).  A missing
    neighbour is the sentinel len(cells), which holds 0, or len(cells) +
    1, which holds the largest value.  One more entry, past the last
    cell, points both bounds at the sentinel 0, so no value is tried
    there: a filling is complete.
    """
    ncells = len(cells)
    (lo_dr, lo_dc), (hi_dr, hi_dc) = (
        ((-1, 0), (0, 1)) if is_ssyt else ((0, 1), (-1, 0))
    )
    index = {}  # the cells before k
    lo_at, hi_at = [], []
    for k, cell in enumerate(cells):
        r, c = cell
        lo_at.append(index.get((r + lo_dr, c + lo_dc), ncells))
        hi_at.append(index.get((r + hi_dr, c + hi_dc), ncells + 1))
        index[cell] = k
    lo_at.append(ncells)
    hi_at.append(ncells)
    return tuple(lo_at), tuple(hi_at)


@cache
def _order(outer, inner, is_ssyt):
    """What `_fill` fills: the cells of outer/inner, canonical and nested,
    in the SSYT or the ASSYT reading order as a tuple, and their `_plan`.
    The budget is asked for `_fill`'s first charge before a cell is
    listed, so a huge shape is refused before it is allocated."""
    _work.require(2 + 3 * (sum(outer) - sum(inner)))
    reading = _ssyt_reading_cells if is_ssyt else _assyt_reading_cells
    cells = tuple(reading(SkewShape._trusted(outer, inner)))
    return cells, _plan(cells, is_ssyt)


def _fill(order, cap=None, max_entry=None, init_counts=None):
    """Backtracking filler shared by the enumerators, over an `_order`.

    The cells come in the reading order of the tableau family, so the
    right neighbour and the neighbour below (SSYT), or the right neighbour
    and the one below in the column (ASSYT), are already placed when a cell
    is filled; the lattice condition can then be checked online.  A
    neighbour that comes later in the order, or is not among the cells,
    does not bound the cell.

    Yields each filling as a fresh list of the values of the cells, in
    their order, with the values of each cell tried in increasing order:
    the first cell varies slowest.
    `cap` caps the multiplicity of each value, `max_entry` leaves it free.
    A cap that sums to the number of cells is an exact content; callers
    that want one check that size before the call.  When `init_counts` is
    given (value -> count), every prefix of the reading word must keep
    count(i) >= count(i+1) starting from those counts.  The counts must
    not increase with the value, as they do not for {} or a partition, and
    a lattice word keeps them so; then once count(v-1) is 0 no value from
    v up can be placed, and the scan of a cell stops there.

    One loop walks the cells with an explicit stack, the value and upper
    bound of each placed cell, so the depth of the search is not bounded
    by Python's recursion limit.  Each cell is bounded through the
    neighbour plan that the order carries.

    The call and each filling are charged to the work meter (`_work`),
    by the cells and the values they run over.
    """
    cells, (lo_at, hi_at) = order
    ncells = len(cells)
    charge = _work.charge
    # the charge that `_order` asks the budget for before it lists cells
    charge(2 + 3 * ncells)
    if cap is not None:
        remaining = list(cap)
        nvals = len(cap)
    else:
        remaining = None
        nvals = max_entry
    # counts[v] for the values 1..nvals; no larger value is ever read
    counts = (None if init_counts is None
              else [init_counts.get(v, 0) for v in range(nvals + 1)])
    # fitted to the time of the Schur skew tables when the filler recursed
    # once per cell and tried up to nvals values at each.  Kept on purpose
    # although the loop is faster: every command charges the units it did
    # (test_work_charge_is_deterministic pins two of them), and a re-fit
    # belongs with counting the fillings instead of enumerating them.
    per_filling = 4 + ncells * (2 + nvals) // 32
    # vals[k] is the value at cell k, and vals[ncells] = 0 and
    # vals[ncells + 1] = nvals stand in for a missing neighbour (`_plan`)
    vals = [0] * ncells + [0, nvals]
    highs = [0] * ncells
    # cell k is tried with the values above v up to hi
    k = 0
    v, hi = vals[lo_at[0]], vals[hi_at[0]]
    while True:
        if k == ncells:
            charge(per_filling)
            yield vals[:ncells]
        while v < hi:
            v += 1
            if remaining is not None and remaining[v - 1] == 0:
                continue
            if counts is not None:
                if v > 1:
                    above = counts[v - 1]
                    if counts[v] >= above:
                        if above == 0:
                            hi = v  # the lattice cut: end the scan
                        continue
                counts[v] += 1
            if remaining is not None:
                remaining[v - 1] -= 1
            vals[k] = v
            highs[k] = hi
            k += 1
            v, hi = vals[lo_at[k]], vals[hi_at[k]]
            break
        else:
            # cell k has no value left: take back the value of the cell
            # before it and try that cell's next value
            k -= 1
            if k < 0:
                return
            v, hi = vals[k], highs[k]
            if remaining is not None:
                remaining[v - 1] += 1
            if counts is not None:
                counts[v] -= 1


def _tableaux(cls, shape, content=None, **fill):
    """Every tableau of class cls on the shape, as `_fill` yields them;
    with a content, those of exactly that content."""
    if content is not None and sum(content) != shape.size:
        return []
    order = _order(shape.outer, shape.inner, cls is SSYT)
    return [cls(shape, dict(zip(order[0], vals)))
            for vals in _fill(order, cap=content, **fill)]


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
    if sum(content) != shape.size:
        return 0
    order = _order(shape.outer, shape.inner, True)
    return sum(1 for _ in _fill(order, cap=content, init_counts={}))


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
    of `_slide_slots`.
    """
    hole = Cell(*map(pt._as_integer, hole))
    outer, inner = t.shape.outer, t.shape.inner
    if pt.is_corner(inner, hole):
        step = 1
    elif pt.is_addable(outer, hole):
        step = -1
    else:
        raise ValueError(f"{hole} is not a legal slide position for {t.shape}")
    # slots 0..n-1 hold the cells of t, slot n the hole
    cells = [*t.entries, hole]
    vals = [*t.entries.values(), 0]
    n = len(cells) - 1
    end = _slide_slots(vals, n, *_neighbours(cells, step), step)
    if end == n:
        return t, None
    vacated = cells[end]
    del cells[end], vals[end]
    if step == 1:
        shape = SkewShape(pt.remove_cell(outer, vacated), pt.remove_cell(inner, hole))
    else:
        shape = SkewShape(pt.add_cell(outer, hole), pt.add_cell(inner, vacated))
    return SSYT(shape, dict(zip(cells, vals))), vacated


def _neighbours(cells, step):
    """The neighbour tables of a slide by step over cells: the slot (index
    into cells) of each cell's row neighbour (r, c + step) and column
    neighbour (r + step, c), or -1 where that cell is not in cells."""
    slot = {cell: k for k, cell in enumerate(cells)}
    get = slot.get
    return ([get((r, c + step), -1) for r, c in cells],
            [get((r + step, c), -1) for r, c in cells])


def _slide_slots(vals, hole, row_at, col_at, step):
    """Slide the hole at slot `hole` through the semistandard values vals,
    in place, along the neighbour tables of `_neighbours`, and return the
    slot it vacates: `hole` itself when no neighbour can move.

    Step 1 is a forward slide: the smaller of the right and upper
    neighbours moves into the hole.  Step -1 is a reverse slide: the larger
    of the left and lower neighbours moves in.  Tie rule: when the row and
    the column neighbour hold equal entries the column neighbour moves, in
    both directions.  This is the unique choice that preserves
    semistandardness and makes forward and reverse slides mutually inverse.
    """
    while True:
        row, col = row_at[hole], col_at[hole]
        if col >= 0 and (row < 0 or step * vals[col] <= step * vals[row]):
            nxt = col
        elif row >= 0:
            nxt = row
        else:
            return hole
        vals[hole] = vals[nxt]
        hole = nxt


# ---------------------------------------------------------------------------
# product rules

def skew_pieri_terms(k, shape):
    """Signed skew terms of s_(k) * s_{outer/inner}: for each i, add a
    (k-i)-horizontal strip above the outer shape and remove an i-vertical
    strip from the inner shape, with sign (-1)^i.  A vertical strip takes
    at most one cell from each row, so i stops at len(inner)."""
    gamma, beta = shape.outer, shape.inner
    out = []
    for i in range(min(k, len(beta)) + 1):
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


def _skew_lr_halves(a, b):
    """The two halves of the one enumeration of the skew
    Littlewood-Richardson rule for the product of the skew Schur functions
    of shapes a and b, as the raw value lists of `_fill`: no tableau is
    built and none is validated.  Returns (fillings, completions).

    The outer half, the generator `fillings`, runs over bm in
    `sub_partitions(b.inner)` and then the ASSYT fillings d1 of
    shape1 = b.inner/bm (`_fill`).  It yields (sign, bm, shape1, cells1,
    d1, used): d1 holds the values of the ASSYT reading order cells1, and
    used is the content of d1 as a tuple over the values 1 to
    len(a.outer).

    The inner half, `completions(used)`, depends on d1 only through used:
    for each gp in the `_growths` order it yields (gp, shape2, cells2,
    d2s), where d2s is the `_fill` generator of the SSYT d2 of shape2 =
    gp/b.outer, over its SSYT reading order cells2, that complete any d1
    of that content.  The fillings of both halves are semistandard by
    construction.
    """
    alpha, delta = a.outer, a.inner
    gamma, beta = b.outer, b.inner
    nvals = len(alpha)
    target = [alpha[i] - pt.part_at(delta, i) for i in range(nvals)]
    total = sum(target)
    init_counts = {i: part for i, part in enumerate(delta, start=1)}
    size = sum(gamma)

    def fillings():
        if any(x < 0 for x in target):
            return
        # every shape below nests by construction: beta_minus <= beta <=
        # gamma <= gamma_plus, all canonical
        for beta_minus in pt.sub_partitions(beta):
            shape1 = SkewShape._trusted(beta, beta_minus)
            size1 = shape1.size
            if size1 > total:
                continue
            sign = -1 if size1 % 2 else 1
            order1 = _order(beta, beta_minus, False)
            cells1 = order1[0]
            for d1 in _fill(order1, cap=target, init_counts=init_counts):
                used = [0] * nvals
                for v in d1:
                    used[v - 1] += 1
                yield sign, beta_minus, shape1, cells1, d1, tuple(used)

    def completions(used):
        remaining = tuple(t - u for t, u in zip(target, used))
        counts1 = {v: pt.part_at(delta, v - 1) + m
                   for v, m in enumerate(used, start=1)}
        for gamma_plus, shape2, order2 in _growths(gamma, size + sum(remaining)):
            yield gamma_plus, shape2, order2[0], _fill(
                order2, cap=remaining, init_counts=counts1)

    return fillings(), completions


def _skew_lr_fillings(a, b):
    """The fillings of the skew Littlewood-Richardson rule, both halves of
    `_skew_lr_halves` run per ASSYT filling d1.

    Yields (sign, shape1, d1, shape2, d2, shape), one per pair of
    `skew_lr_pairs` and in its order: d1 is the entry dict of its ASSYT
    of shape1 and d2 that of its SSYT of shape2.  The loop runs over bm,
    then the fillings d1, then gp in the `_growths` order, then the
    fillings d2; one shape object gp/bm is shared by every d2 of one
    (d1, gp).
    """
    fillings, completions = _skew_lr_halves(a, b)
    for sign, beta_minus, shape1, cells1, vals1, used in fillings:
        d1 = dict(zip(cells1, vals1))
        for gamma_plus, shape2, cells2, d2s in completions(used):
            shape = SkewShape._trusted(gamma_plus, beta_minus)
            for vals2 in d2s:
                yield sign, shape1, d1, shape2, dict(zip(cells2, vals2)), shape


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
    """(gamma_plus, gamma_plus/gamma, the SSYT `_order` of that shape) for
    every gamma_plus of size n containing gamma, in partitions_of order
    (reverse lexicographic).  Only those partitions are visited
    (`partitions._between`), each charged by the rows that its step scans,
    after n is charged for the cap that bounds them."""
    _work.charge(n)
    out = []
    for gamma_plus in pt._between(gamma, (n,) * n, n):
        gamma_plus = pt._intern(gamma_plus)
        out.append((gamma_plus, SkewShape._trusted(gamma_plus, gamma),
                    _order(gamma_plus, gamma, True)))
    return tuple(out)


def skew_lr_terms(a, b):
    """Signed skew-shape terms of the product, one per tableau pair, in the
    order of `skew_lr_pairs`; no tableau is built."""
    return [(sign, shape) for sign, _s1, _d1, _s2, _d2, shape
            in _skew_lr_fillings(a, b)]


def skew_lr_product(a, b):
    """Product of two skew Schur functions via the skew LR rule, collapsed
    to the Schur basis.  No tableau is built and no filling is kept.

    The completions depend on an ASSYT filling only through its content
    (`_skew_lr_halves`), so each content's SSYT completions are counted
    once per call, as [(gp, count)] over its nonzero counts, and every
    ASSYT filling of that content adds sign * count under (gp, bm).  Each
    (gp, bm) whose total is nonzero then adds that total times its
    memoized skew table (`symfunc._schur_skew_terms`) into one integer
    dict.  The counts of a call are dropped when it returns."""
    fillings, completions = _skew_lr_halves(a, b)
    by_content = {}
    counts = {}
    for sign, beta_minus, _s1, _c1, _d1, used in fillings:
        found = by_content.get(used)
        if found is None:
            found = by_content[used] = [
                (gamma_plus, n) for gamma_plus, _s2, _c2, d2s in completions(used)
                if (n := sum(1 for _ in d2s))
            ]
        for gamma_plus, n in found:
            key = gamma_plus, beta_minus
            counts[key] = counts.get(key, 0) + sign * n
    out = {}
    for (outer, inner), n in counts.items():
        if n:
            sf._add_into(out, sf._schur_skew_terms(outer, inner), n)
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


@cache
def _slide_plan(gamma, delta, theta):
    """The forward slides of the SSYT of gamma/delta into the hole
    delta/theta, on value lists, for canonical nested partitions with
    |delta/theta| = 1.

    Slots 0..n-1 are the cells of gamma/delta in SSYT reading order and
    slot n is the hole.  Returns (order, row_at, col_at, stops): the SSYT
    `_order` of gamma/delta, the neighbour tables of `_neighbours` over
    the n + 1 slots, and for each slot where the hole can stop (a corner
    of gamma) the pair (beta, getter), with beta the interned gamma minus
    that cell and getter reading the values of beta/theta in SSYT reading
    order off the slots, as a tuple.  stops is None at every other slot.
    """
    order = _order(gamma, delta, True)
    slots = [*order[0], _added_cell(theta, delta)]
    slot = {cell: k for k, cell in enumerate(slots)}
    stops = [None] * len(slots)
    for k, cell in enumerate(slots):
        if pt.is_corner(gamma, cell):
            beta = pt._intern(pt.remove_cell(gamma, cell))
            at = [slot[c] for c in _order(beta, theta, True)[0]]
            # itemgetter of fewer than two items returns no tuple
            getter = (itemgetter(*at) if len(at) > 1
                      else lambda vals, at=at: tuple(vals[i] for i in at))
            stops[k] = beta, getter
    return (order, *_neighbours(slots, 1), stops)


def _reading_words(outer, inner, bound):
    """The values, in SSYT reading order, of every SSYT of outer/inner with
    entries in 1..bound."""
    return map(tuple, _fill(_order(outer, inner, True), max_entry=bound))


def _tableau_json(outer, inner, values, holes=()):
    """The filling of outer/inner with the given values in SSYT reading
    order, and the holes to slide it into, as the JSON tableau that
    `symop jdt` reads."""
    # only a failure needs json, so `import symop` does not pay for it
    import json

    cells = _order(outer, inner, True)[0]
    blob = {
        "shape": str(SkewShape._trusted(outer, inner)),
        "entries": sorted([r, c, v] for (r, c), v in zip(cells, values)),
    }
    if holes:
        blob["holes"] = [list(hole) for hole in holes]
    return json.dumps(blob)


def _slid_into(alpha, theta, bound, outcome):
    """The JSON of an SSYT of gamma/delta and its hole delta/theta whose
    forward slide ends in outcome, in the loop and keys of
    `verify_jdt_bijection`: (beta, values) for cases (a) and (b), values
    alone for case (c).  Runs the slides again, so only a failure pays for
    it."""
    for gamma in pt.add_set(alpha):
        for delta in pt.add_restrict(theta, alpha):
            order, row_at, col_at, stops = _slide_plan(gamma, delta, theta)
            hole = len(order[0])
            for vals in _fill(order, max_entry=bound):
                slid = [*vals, 0]
                beta, getter = stops[_slide_slots(slid, hole, row_at, col_at, 1)]
                values = getter(slid)
                if (values if beta == alpha else (beta, values)) == outcome:
                    return _tableau_json(gamma, delta, vals,
                                         [_added_cell(theta, delta)])
    raise AssertionError(f"no slide ends in {outcome}")


def _failing_tableau(alpha, theta, bound, got, want, case_c):
    """The tableau that a failure of `verify_jdt_bijection` names, as JSON
    that `symop jdt` reads.  For the first outcome whose multiplicity is
    wrong (`_first_difference`): an input tableau and its hole whose slide
    ends in it, when the slides reach it, else the expected tableau that
    the slides miss, of shape beta/theta (alpha/theta in case (c))."""
    key = _first_difference(got, want)
    if key in got:
        return _slid_into(alpha, theta, bound, key)
    beta, values = (alpha, key) if case_c else key
    return _tableau_json(beta, theta, values)


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

    It slides the trusted value lists of `_fill` (see the module
    docstring) through the slot plan of `_slide_plan`, one per (gamma,
    delta, theta), and keys each outcome by its shape and its values in
    SSYT reading order.  A slid filling that is not one of the expected SSYT
    shows up as a mismatch.  A tableau is written out only for a failure,
    under the param "tableau", in the JSON form that `symop jdt` reads
    (`_failing_tableau`): the unslid input with its hole, which `symop
    jdt` slides again, when the slides reach a wrong outcome, or else the
    expected tableau that they miss.  Either one is semistandard, whatever
    the slides do.
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
            order, row_at, col_at, stops = _slide_plan(gamma, delta, theta)
            hole = len(order[0])
            for vals in _fill(order, max_entry=bound):
                checked += 1
                vals.append(0)
                # case (a) moves nothing, and the hole's own cell leaves
                # gamma instead
                beta, getter = stops[_slide_slots(vals, hole, row_at, col_at, 1)]
                values = getter(vals)
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
        failures.append(
            Failure(
                {**params, "part": "cases a+b", "tableau": _failing_tableau(
                    alpha, theta, bound, got_ab, want_ab, False)},
                f"{len(got_ab)} distinct slid tableaux (multiplicities "
                f"{sorted(got_ab.values())})",
                f"{len(want_ab)} expected tableaux, each once",
            )
        )
    if got_c != want_c:
        failures.append(
            Failure(
                {**params, "part": "case c", "tableau": _failing_tableau(
                    alpha, theta, bound, got_c, want_c, True)},
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
