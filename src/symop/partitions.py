"""Partitions, skew shapes, and the cell-level diagram combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Diagrams are drawn in the French
convention throughout: row 0 is the bottom (longest) row and columns grow
upward, so a cell is addressed as Cell(row, col) counted from the bottom
left.

Every partition family (partitions_of, sub_partitions and the strips)
is listed by one reverse-lexicographic loop, `_between`, which charges
the work meter (`_work`) by the rows each of its steps scans.
"""

from bisect import bisect_right
from functools import cache
from itertools import accumulate
from math import factorial
from typing import NamedTuple

from . import _work


class Cell(NamedTuple):
    """A box of a Young diagram.  Row 0 is the bottom row (French)."""

    row: int
    col: int


def _as_integer(x):
    """x as an int; ValueError when x is not an integral number, so 2.5 or
    Fraction(7, 2) is rejected rather than truncated."""
    try:
        n = int(x)
    except OverflowError:
        raise ValueError(f"{x!r} is not an integer") from None
    if n != x and not isinstance(x, str):
        raise ValueError(f"{x!r} is not an integer")
    return n


def make_partition(parts):
    """Canonicalize a part sequence: validate and strip zeros.

    Zeros are accepted on input but never stored, so equal partitions
    always have equal tuples.  A tuple of ints without trailing zeros is
    returned as it is.  A negative part is reported before a break in the
    weakly decreasing order.
    """
    parts = tuple(parts)
    prev = None
    ordered = True
    for x in parts:
        if type(x) is not int:
            return make_partition(tuple(map(_as_integer, parts)))
        if x < 0:
            raise ValueError(f"negative part in {parts!r}")
        if prev is not None and prev < x:
            ordered = False
        prev = x
    if not ordered:
        raise ValueError(f"parts not weakly decreasing: {parts!r}")
    if parts and not parts[-1]:
        parts = parts[: parts.index(0)]
    return parts


def parse_partition(text):
    """Parse '3,1' or '0' (the empty partition)."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition text {text!r}") from None
    return make_partition(parts)


def render_partition(parts):
    return ",".join(str(x) for x in parts) if parts else "0"


def sort_key(parts):
    """Deterministic order: by size, then reverse-lexicographic."""
    return (sum(parts), tuple(-x for x in parts))


def part_at(parts, i):
    """i-th part (0-based), reading missing parts as 0."""
    return parts[i] if 0 <= i < len(parts) else 0


def conjugate(lam):
    """Transpose of the diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > c) for c in range(lam[0]))


def contains(inner, outer):
    """True iff inner_i <= outer_i for all i."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def corners(lam):
    """Removable cells, listed from the top row down to the bottom row."""
    out = []
    for r in range(len(lam) - 1, -1, -1):
        if lam[r] > part_at(lam, r + 1):
            out.append(Cell(r, lam[r] - 1))
    return out


def noc(lam):
    """Number of corners."""
    return len(corners(lam))


def addable_cells(lam):
    """Cells that can be added to keep a partition, top row down."""
    out = [Cell(len(lam), 0)]
    for r in range(len(lam) - 1, -1, -1):
        if r == 0 or lam[r - 1] > lam[r]:
            out.append(Cell(r, lam[r]))
    return out


def is_corner(lam, cell):
    """True iff cell is in corners(lam), tested in constant time."""
    r, c = cell
    return 0 <= r < len(lam) and c == lam[r] - 1 and lam[r] > part_at(lam, r + 1)


def is_addable(lam, cell):
    """True iff cell is in addable_cells(lam), tested in constant time."""
    r, c = cell
    if r == len(lam):
        return c == 0
    return 0 <= r < len(lam) and c == lam[r] and (r == 0 or lam[r - 1] > lam[r])


def remove_cell(lam, cell):
    """Partition with a corner cell removed."""
    if not is_corner(lam, cell):
        raise ValueError(f"{cell} is not a corner of {lam}")
    new = list(lam)
    new[cell[0]] -= 1
    return tuple(x for x in new if x)


def add_cell(lam, cell):
    """Partition with an addable cell attached."""
    if not is_addable(lam, cell):
        raise ValueError(f"{cell} is not addable to {lam}")
    new = list(lam) + [0]
    new[cell[0]] += 1
    return tuple(x for x in new if x)


def remove_set(lam):
    """Partitions obtained by removing one corner, sorted."""
    out = {remove_cell(lam, c) for c in corners(lam)}
    return sorted(out, key=sort_key)


def add_set(lam):
    """Partitions obtained by adding one box, sorted.  len = noc + 1."""
    out = {add_cell(lam, c) for c in addable_cells(lam)}
    return sorted(out, key=sort_key)


def addremove_set(lam):
    """Partitions != lam reached by removing a corner then adding a box."""
    out = set()
    for mu in remove_set(lam):
        out.update(add_set(mu))
    out.discard(lam)
    return sorted(out, key=sort_key)


def add_restrict(theta, alpha):
    """Members of add_set(theta) contained in alpha."""
    return [d for d in add_set(theta) if contains(d, alpha)]


def add_complement(theta, alpha):
    """Members of add_set(theta) not contained in alpha."""
    return [d for d in add_set(theta) if not contains(d, alpha)]


# One tuple object per partition, shared by partitions_of, sub_partitions
# and the Schur tables that build their own keys, so that dict lookups and
# merges across them find equal keys by identity instead of comparing
# tuples.
_INTERNED = {}


def _intern(parts):
    """The shared tuple object equal to the canonical partition parts."""
    return _INTERNED.setdefault(parts, parts)


def _canonical(parts):
    """make_partition(parts), skipped when parts is already the interned
    tuple of a canonical partition."""
    try:
        if _INTERNED.get(parts) is parts:
            return parts
    except TypeError:
        pass
    return make_partition(parts)


def _between(floor, cap, n):
    """The partitions of n with floor_i <= nu_i <= cap_i in every row i, in
    reverse-lexicographic order, from one loop with no recursion and no
    sort.  floor and cap are weakly decreasing, missing rows and trailing
    zeros read as 0, and floor is contained in cap unless |floor| > n.

    The first nu takes each row as long as it can while the rows after it
    still hold floor there.  Each next one takes a cell off the last row
    that can lose one and still leave room for the cells after it, then
    refills the rows after that row the same way: no step ends in a dead
    end.  The room of the rows after i, none longer than v, is
    sum_j min(cap_j, v), read off the suffix sums of cap.  Each partition
    is charged by the rows that the step after it scans back over, so a
    family costs as many units as its prefix tree has nodes.
    """
    return _walk(_frame(floor, cap), n)


def _frame(floor, cap):
    """What the walk of `_between` reads of floor and cap, whatever the
    size: cap, the floor padded to its rows, the suffix sums of both, the
    negated caps for bisection and the smallest cap.  Built once and
    shared by every size of one family."""
    floor = tuple(floor) + (0,) * (len(cap) - len(floor))
    floor_rest = list(accumulate(reversed(floor), initial=0))[::-1]
    cap_rest = list(accumulate(reversed(cap), initial=0))[::-1]
    return cap, floor, floor_rest, cap_rest, [-c for c in cap], min(cap, default=0)


def _walk(frame, n):
    """The partitions of n between the floor and cap of frame (`_frame`),
    as `_between` lists them."""
    cap, floor, floor_rest, cap_rest, neg_cap, low = frame
    rows = len(cap)
    if not floor_rest[0] <= n <= cap_rest[0]:
        return
    parts, left, prev = [], n, n
    while True:
        i = len(parts)
        while left:
            prev = min(cap[i], prev, left - floor_rest[i + 1])
            parts.append(prev)
            left -= prev
            i += 1
        yield tuple(parts)
        top, after = i, 0
        while i:
            i -= 1
            v = parts[i] - 1
            # rows i+1 .. k-1 hold v cells each, the rows from k on their cap
            k = rows if low >= v else bisect_right(neg_cap, -v, i + 1)
            if v >= floor[i] and after < v * (k - i - 1) + cap_rest[k]:
                break
            after += parts[i]
        else:
            _work.charge(top + 1)
            return
        _work.charge(top - i)
        parts[i] = prev = v
        del parts[i + 1:]
        left = after + 1


@cache
def partitions_of(n):
    """All partitions of n, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # the cap is sized by n; the walk charges one unit per node, at least
    # p(n) >= n in all, so a budget that cannot pay n refuses it at once
    _work.require(n)
    return tuple(map(_intern, _between((), (n,) * n, n)))


def partitions_upto(n):
    """All partitions of size 0..n, ordered by (size, reverse-lex)."""
    out = []
    for m in range(n + 1):
        out.extend(partitions_of(m))
    return out


def sub_partitions(lam, max_size=None):
    """All partitions contained in lam, ordered by (size, reverse-lex), as
    a fresh list."""
    subs = _sub_partitions(tuple(lam))
    if max_size is not None:
        return [mu for mu in subs if sum(mu) <= max_size]
    return list(subs)


@cache
def _sub_partitions(lam):
    """The partitions contained in lam as a sorted tuple of interned
    tuples, one enumeration per lam, over one frame for every size.  Each
    size 0..|lam| has one, and the walk charges each, so the budget is
    asked for |lam| + 1 units before anything is listed."""
    _work.require(sum(lam) + 1)
    frame = _frame((), lam)
    return tuple(_intern(mu) for m in range(sum(lam) + 1)
                 for mu in _walk(frame, m))


def z_factor(lam):
    """z_lam = prod_i i^{m_i} m_i!, the centralizer size for cycle type lam."""
    z = 1
    mult = {}
    for x in lam:
        mult[x] = mult.get(x, 0) + 1
    for k, m in mult.items():
        z *= k**m * factorial(m)
    return z


def horizontal_strips_above(gamma, k):
    """Partitions g+ containing gamma with g+/gamma a k-horizontal strip.

    Horizontal strip: at most one new box per column, which is the
    interlacing condition gamma_{i-1} >= g+_i >= gamma_i.
    """
    k = _as_integer(k)
    cap = (part_at(gamma, 0) + k, *gamma)
    return list(_between(gamma, cap, sum(gamma) + k))


def vertical_strips_below(beta, i):
    """Partitions b- contained in beta with beta/b- an i-vertical strip.

    Vertical strip: at most one box removed per row.
    """
    i = _as_integer(i)
    return list(_between([x - 1 for x in beta], beta, sum(beta) - i))


class SkewShape:
    """A skew diagram outer/inner with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=()):
        outer = make_partition(outer)
        inner = make_partition(inner)
        if not contains(inner, outer):
            raise ValueError(f"{inner} not contained in {outer}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @classmethod
    def _trusted(cls, outer, inner):
        """Build from canonical partitions already known to nest, without
        checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SkewShape is immutable")

    @property
    def size(self):
        return sum(self.outer) - sum(self.inner)

    def cells(self):
        """All cells, bottom row first, left to right within a row."""
        out = []
        for r in range(len(self.outer)):
            for c in range(part_at(self.inner, r), self.outer[r]):
                out.append(Cell(r, c))
        return out

    def __contains__(self, cell):
        r, c = cell
        return 0 <= r < len(self.outer) and part_at(self.inner, r) <= c < self.outer[r]

    def __eq__(self, other):
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __str__(self):
        return f"{render_partition(self.outer)}/{render_partition(self.inner)}"

    def __repr__(self):
        return f"SkewShape({self.outer}, {self.inner})"


def parse_skew(text):
    """Parse '5,3,1/2,1'; a bare partition means an empty inner shape."""
    if "/" in text:
        outer, inner = text.split("/", 1)
        return SkewShape(parse_partition(outer), parse_partition(inner))
    return SkewShape(parse_partition(text))
