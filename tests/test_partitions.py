import math
import re
from fractions import Fraction

import pytest

from symop import _work, partitions as pt
from symop.partitions import Cell, SkewShape


def test_make_partition_strips_zeros():
    assert pt.make_partition((3, 1, 0, 0)) == (3, 1)
    assert pt.make_partition(()) == ()
    assert pt.make_partition((0, 0)) == ()


def test_make_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        pt.make_partition((1, 2))
    with pytest.raises(ValueError):
        pt.make_partition((3, -1))
    with pytest.raises(ValueError):
        pt.make_partition((3, 0, 1))


def test_make_partition_reports_negative_before_order():
    for parts in ((1, -1, 2), (1, 2, -1), (3, -1)):
        with pytest.raises(ValueError, match="negative part"):
            pt.make_partition(parts)
    with pytest.raises(ValueError, match="weakly decreasing"):
        pt.make_partition((1, 2))


def test_make_partition_rejects_non_integral_parts():
    for parts, bad in (((2.5, 1), 2.5), ((Fraction(7, 2),), Fraction(7, 2)),
                       ((3, 1.5), 1.5), ((float("inf"),), float("inf"))):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
            pt.make_partition(parts)
    for parts in ((float("nan"),), (float("-inf"),), ("2.5",)):
        with pytest.raises(ValueError):
            pt.make_partition(parts)
    # integral values of other types are converted, not rejected
    got = pt.make_partition((2.0, "2", Fraction(1), True, 0))
    assert got == (2, 2, 1, 1) and all(type(x) is int for x in got)
    assert pt.make_partition([3, 1]) == (3, 1)
    assert pt.make_partition(iter((2, 2, 0))) == (2, 2)


def test_make_partition_returns_canonical_tuple_itself():
    lam = (4, 2, 2, 1)
    assert pt.make_partition(lam) is lam
    assert pt.make_partition((4, 2, 0, 0)) == (4, 2)


def test_parse_render_round_trip():
    assert pt.parse_partition("3,1") == (3, 1)
    assert pt.parse_partition("0") == ()
    assert pt.render_partition((3, 1)) == "3,1"
    assert pt.render_partition(()) == "0"
    with pytest.raises(ValueError):
        pt.parse_partition("1,2")


def test_conjugate_examples():
    assert pt.conjugate(()) == ()
    assert pt.conjugate((3, 1)) == (2, 1, 1)
    assert pt.conjugate((2, 2)) == (2, 2)


def test_conjugate_is_involution_up_to_10():
    for n in range(11):
        for lam in pt.partitions_of(n):
            assert pt.conjugate(pt.conjugate(lam)) == lam


def test_contains():
    assert pt.contains((1,), (3, 1))
    assert not pt.contains((2, 2), (3, 1))
    for lam in pt.partitions_of(5):
        assert pt.contains((), lam)


def test_corners():
    assert pt.corners((3, 1)) == [Cell(1, 0), Cell(0, 2)]
    assert pt.noc((3, 1)) == 2
    assert pt.corners(()) == []
    assert pt.corners((2, 2)) == [Cell(1, 1)]
    assert pt.noc((2, 2)) == 1


def test_addremove_examples():
    assert set(pt.addremove_set((3, 1))) == {(4,), (2, 2), (2, 1, 1)}
    assert pt.addremove_set((1,)) == []
    assert set(pt.add_set((2,))) == {(3,), (2, 1)}
    assert pt.noc((2,)) == len(pt.add_set((2,))) - 1


def test_add_set_size_is_noc_plus_one():
    for n in range(11):
        for lam in pt.partitions_of(n):
            assert len(pt.add_set(lam)) == pt.noc(lam) + 1


def test_remove_add_duality_up_to_8():
    for n in range(9):
        for lam in pt.partitions_of(n):
            for mu in pt.remove_set(lam):
                assert lam in pt.add_set(mu)
            for mu in pt.add_set(lam):
                assert lam in pt.remove_set(mu)


def test_partitions_of():
    assert pt.partitions_of(0) == ((),)
    assert pt.partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(pt.partitions_of(8)) == 22


def test_sub_partitions():
    subs = pt.sub_partitions((2, 1))
    assert set(subs) == {(), (1,), (2,), (1, 1), (2, 1)}
    assert subs == sorted(subs, key=pt.sort_key)
    # a column longer than Python's recursion limit
    column = pt.sub_partitions((1,) * 1200)
    assert len(column) == 1201 and column[-1] == (1,) * 1200


def test_z_factor():
    assert pt.z_factor(()) == 1
    assert pt.z_factor((1, 1, 1)) == 6
    assert pt.z_factor((3, 1, 1)) == 6


def test_conjugacy_class_sizes_sum_to_group_order():
    # n!/z_lam is the size of the class of cycle type lam
    for n in range(9):
        total = sum(
            math.factorial(n) // pt.z_factor(lam) for lam in pt.partitions_of(n)
        )
        assert total == math.factorial(n)


def test_skew_shape_basics():
    sh = SkewShape((5, 3, 1), (2, 1))
    assert sh.size == 6
    assert Cell(0, 2) in sh and Cell(0, 1) not in sh
    assert str(sh) == "5,3,1/2,1"
    assert pt.parse_skew("5,3,1/2,1") == sh
    assert pt.parse_skew("3,1") == SkewShape((3, 1))
    with pytest.raises(ValueError):
        SkewShape((3, 1), (2, 2))


def test_skew_shape_cells_order():
    sh = SkewShape((2, 2), (1,))
    assert sh.cells() == [Cell(0, 1), Cell(1, 0), Cell(1, 1)]


def test_add_restrict_and_complement():
    assert pt.add_restrict((2, 1), (4, 1, 1)) == [(3, 1), (2, 1, 1)]
    assert pt.add_complement((2, 1), (4, 1, 1)) == [(2, 2)]


def test_horizontal_strips():
    assert pt.horizontal_strips_above((2, 1), 1) == [(3, 1), (2, 2), (2, 1, 1)]
    assert pt.horizontal_strips_above((), 2) == [(2,)]
    # at most one box per column in every generated strip
    for gp in pt.horizontal_strips_above((3, 2), 3):
        cols_new = []
        for r in range(len(gp)):
            lo = pt.part_at((3, 2), r)
            cols_new.extend(range(lo, gp[r]))
        assert len(cols_new) == len(set(cols_new)) == 3


def test_vertical_strips():
    assert pt.vertical_strips_below((1,), 1) == [()]
    assert pt.vertical_strips_below((2, 2), 2) == [(1, 1)]
    for bm in pt.vertical_strips_below((3, 2, 2), 2):
        drops = [pt.part_at((3, 2, 2), r) - pt.part_at(bm, r) for r in range(3)]
        assert all(d in (0, 1) for d in drops) and sum(drops) == 2


def test_corner_predicates_match_the_lists():
    # every cell of the diagram's bounding box grown by one on each side,
    # negative rows and columns included
    for lam in pt.partitions_upto(8):
        corners = pt.corners(lam)
        addable = pt.addable_cells(lam)
        width = lam[0] if lam else 0
        for r in range(-1, len(lam) + 1):
            for c in range(-1, width + 1):
                for cell in (Cell(r, c), (r, c)):
                    assert pt.is_corner(lam, cell) == (cell in corners)
                    assert pt.is_addable(lam, cell) == (cell in addable)


def test_cell_edits():
    assert pt.remove_cell((3, 1), Cell(0, 2)) == (2, 1)
    assert pt.add_cell((3, 1), Cell(1, 1)) == (3, 2)
    with pytest.raises(ValueError):
        pt.remove_cell((3, 1), Cell(0, 0))
    with pytest.raises(ValueError):
        pt.add_cell((3, 1), Cell(0, 0))


def test_sub_partitions_returns_a_fresh_list():
    want = [(), (1,), (2,), (1, 1), (2, 1)]
    for max_size in (None, 3):
        subs = pt.sub_partitions((2, 1), max_size)
        assert subs == want
        subs.append((9,))
        subs[0] = (7,)
        assert pt.sub_partitions((2, 1), max_size) == want
    assert pt.sub_partitions([2, 1], max_size=1) == [(), (1,)]
    # one enumeration per lam, of shared tuples
    before = pt._sub_partitions.cache_info()
    subs = pt.sub_partitions((2, 1))
    after = pt._sub_partitions.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert all(pt._INTERNED.get(mu) is mu for mu in subs)


def _reference_partitions_of(n):
    """(the partitions of n in reverse-lexicographic order, the nodes of
    the recursion that lists them), by a recursion that shares no code
    with `partitions._between`: the oracle of every partition family."""
    out = []
    nodes = 0

    def rec(remaining, maxpart, prefix):
        nonlocal nodes
        nodes += 1
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(maxpart, remaining), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return out, nodes


def _strips_by_interlacing(gamma, k):
    """Every partition of |gamma| + k with gamma_{i-1} >= g+_i >= gamma_i,
    in reverse-lexicographic order."""
    n = len(gamma) + 1
    return [
        gp for gp in _reference_partitions_of(sum(gamma) + k)[0]
        if len(gp) <= n and all(
            pt.part_at(gamma, i) <= pt.part_at(gp, i)
            and (i == 0 or pt.part_at(gp, i) <= gamma[i - 1])
            for i in range(n)
        )
    ]


def _charged(f, *args):
    """f(*args) and the units it charged to the work meter."""
    units = 10**9
    _work.set_budget(units)
    try:
        out = f(*args)
        return out, units - _work._left
    finally:
        _work.set_budget(None)


def test_horizontal_strips_are_output_sensitive():
    # the same strips in the same order as the interlacing condition gives,
    # and every node of the enumeration is on the path of some strip: at
    # most (rows + 1) nodes per strip, rows = len(gamma) + 1
    for gamma in pt.partitions_upto(8):
        for k in range(11):
            out, nodes = _charged(pt.horizontal_strips_above, gamma, k)
            assert out == _strips_by_interlacing(gamma, k), (gamma, k)
            assert nodes <= (len(gamma) + 2) * len(out), (gamma, k)
    for gamma, k in (((8, 6, 4, 2), 10), ((5, 5, 5), 3)):
        out, nodes = _charged(pt.horizontal_strips_above, gamma, k)
        assert nodes <= (len(gamma) + 2) * len(out), (gamma, k)
    assert pt.horizontal_strips_above((2, 1), -1) == []


def test_partitions_of_charges_the_nodes_of_the_reference_recursion():
    for n in range(16):
        out, units = _charged(pt.partitions_of.__wrapped__, n)
        want, nodes = _reference_partitions_of(n)
        assert list(out) == want and units == nodes, n


def test_sub_partitions_and_vertical_strips_match_their_definitions():
    # in (size, reverse-lex) order, as filters of the reference partitions
    every = [_reference_partitions_of(m)[0] for m in range(11)]
    for lam in pt.partitions_upto(10):
        size = sum(lam)
        want = [mu for m in range(size + 1) for mu in every[m]
                if pt.contains(mu, lam)]
        assert pt.sub_partitions(lam) == want, lam
        for i in range(-1, len(lam) + 2):
            # at most one box removed per row
            want = [bm for bm in (every[size - i] if 0 <= i <= size else [])
                    if pt.contains(bm, lam) and all(
                        lam[r] - pt.part_at(bm, r) <= 1
                        for r in range(len(lam)))]
            assert pt.vertical_strips_below(lam, i) == want, (lam, i)
