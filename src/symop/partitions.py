"""Partitions, skew shapes, and the cell-level diagram combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Diagrams are drawn in the French
convention throughout: row 0 is the bottom (longest) row and columns grow
upward, so a cell is addressed as Cell(row, col) counted from the bottom
left.

The enumerations charge the work meter (`_work`) one unit per node of
their recursion.
"""

from functools import cache
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


# One tuple object per partition, shared by partitions_of and the Schur
# tables that build their own keys, so that dict lookups and merges across
# them find equal keys by identity instead of comparing tuples.
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


@cache
def partitions_of(n):
    """All partitions of n, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    charge = _work.charge

    def rec(remaining, maxpart, prefix):
        charge()
        if remaining == 0:
            out.append(_intern(tuple(prefix)))
            return
        for k in range(min(maxpart, remaining), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def partitions_upto(n):
    """All partitions of size 0..n, ordered by (size, reverse-lex)."""
    out = []
    for m in range(n + 1):
        out.extend(partitions_of(m))
    return out


def sub_partitions(lam, max_size=None):
    """All partitions contained in lam, ordered by (size, reverse-lex)."""
    out = [()]
    charge = _work.charge

    def rec(i, cap, prefix):
        charge()
        if i >= len(lam):
            return
        for v in range(1, min(cap, lam[i]) + 1):
            prefix.append(v)
            out.append(tuple(prefix))
            rec(i + 1, v, prefix)
            prefix.pop()

    rec(0, lam[0] if lam else 0, [])
    if max_size is not None:
        out = [mu for mu in out if sum(mu) <= max_size]
    return sorted(set(out), key=sort_key)


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
    rows = len(gamma) + 1
    out = []
    charge = _work.charge

    def rec(i, remaining, prefix):
        charge()
        if i == rows:
            if remaining == 0:
                out.append(tuple(x for x in prefix if x))
            return
        lo = part_at(gamma, i)
        hi = part_at(gamma, i - 1) if i > 0 else lo + remaining
        for v in range(lo, min(hi, lo + remaining) + 1):
            prefix.append(v)
            rec(i + 1, remaining - (v - lo), prefix)
            prefix.pop()

    rec(0, k, [])
    return sorted(out, key=sort_key)


def vertical_strips_below(beta, i):
    """Partitions b- contained in beta with beta/b- an i-vertical strip.

    Vertical strip: at most one box removed per row.
    """
    out = []
    charge = _work.charge

    def rec(r, remaining, prefix):
        charge()
        if r == len(beta):
            if remaining == 0:
                out.append(tuple(x for x in prefix if x))
            return
        for drop in (0, 1):
            v = beta[r] - drop
            if drop > remaining or (prefix and v > prefix[-1]):
                continue
            prefix.append(v)
            rec(r + 1, remaining - drop, prefix)
            prefix.pop()

    rec(0, i, [])
    return sorted(out, key=sort_key)


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
