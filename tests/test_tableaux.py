import hashlib
import json
import re
from collections import Counter

import pytest

from symop import _work, cli, partitions as pt, symfunc as sf, tableaux as tb
from symop.partitions import Cell, SkewShape

from test_partitions import _reference_partitions_of

# the worked ASSYT/SSYT pair used throughout: an ASSYT of shape (3,3)/(1)
# and an SSYT of shape (9,9,5,3)/(7,5,4,1), contributing to the product of
# the skew Schur functions of (7,5,5,4,3,1)/(5,3,2,1) and (7,5,4,1)/(3,3)
T1_ENTRIES = {(0, 1): 3, (0, 2): 2, (1, 0): 5, (1, 1): 3, (1, 2): 1}
T2_ENTRIES = {
    (0, 7): 2, (0, 8): 4,
    (1, 5): 1, (1, 6): 4, (1, 7): 4, (1, 8): 5,
    (2, 4): 3,
    (3, 1): 5, (3, 2): 6,
}


def _recursive_fill(cells, is_ssyt, content=None, max_entry=None,
                    budget=None, init_counts=None):
    """The recursive generator that `tb._fill` replaced, kept as the
    reference for its yield order and its work charges."""
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


def _fill_modes(size):
    """Pairs of keyword sets, for `_recursive_fill` and for `tb._fill`, on
    a shape of the given size: every content of at most three values that
    fits it (as a cap on `_fill`, whose callers check the size), a few
    budgets (caps) and max_entry 1-4."""
    contents = [(a, b, size - a - b) for a in range(size + 1)
                for b in range(size + 1 - a)]
    contents += [c for c in [(size,), (), (1,) * size] if sum(c) == size]
    budgets = [(2,), (2, 2), (3, 1, 1), (1, 2, 2), (2, 0, 3)]
    return ([({"content": c}, {"cap": c}) for c in contents]
            + [({"budget": b}, {"cap": b}) for b in budgets]
            + [({"max_entry": m},) * 2 for m in range(1, 5)])


def _spent(fill, *args, **kw):
    """What fill yields and the work units it charges for it."""
    start = 10**12
    _work.set_budget(start)
    try:
        got = list(fill(*args, **kw))
        return got, start - _work._left
    finally:
        _work.set_budget(None)


def test_fill_matches_the_recursive_filler_up_to_5():
    # the value lists, zipped with the cells, are the same dicts, in the
    # same order and with the same key order, and the same units, for both
    # reading orders of every skew shape with outer size <= 5 and every
    # mode, with and without a lattice condition; the memoized `_order` of
    # each is the definition of its reading order, as a tuple
    calls = fillings = 0
    for outer in pt.partitions_upto(5):
        for inner in pt.sub_partitions(outer):
            shape = SkewShape(outer, inner)
            for is_ssyt, reading in ((True, tb._ssyt_reading_cells),
                                     (False, tb._assyt_reading_cells)):
                order = tb._order(outer, inner, is_ssyt)
                assert order is tb._order(outer, inner, is_ssyt)
                cells = order[0]
                assert cells == tuple(reading(shape))
                for ref_mode, mode in _fill_modes(shape.size):
                    for init_counts in (None, {}, {1: 2, 2: 1}):
                        kw = dict(mode, init_counts=init_counts)
                        want, want_units = _spent(
                            _recursive_fill, cells, is_ssyt,
                            **ref_mode, init_counts=init_counts)
                        vals, units = _spent(tb._fill, order, **kw)
                        assert all(len(v) == len(cells) for v in vals)
                        got = [dict(zip(cells, v)) for v in vals]
                        assert got == want, (shape, is_ssyt, kw)
                        assert [list(d) for d in got] == [list(d) for d in want]
                        assert units == want_units, (shape, is_ssyt, kw)
                        calls += 1
                        fillings += len(got)
    assert calls > 10_000 and fillings > 10_000


def test_growths_are_the_containing_partitions_in_order():
    every = [_reference_partitions_of(n)[0] for n in range(11)]
    for gamma in pt.partitions_upto(7):
        for n in range(11):
            want = [gp for gp in every[n] if pt.contains(gamma, gp)]
            growths = tb._growths(gamma, n)
            assert [gp for gp, *_ in growths] == want, (gamma, n)
            for gp, shape2, order in growths:
                assert shape2 == SkewShape(gp, gamma)
                # the shared memo entry itself, not a copy of it
                assert order is tb._order(gp, gamma, True)
                assert order[0] == tuple(tb._ssyt_reading_cells(shape2))


def test_schur_skew_table_keeps_no_reading_order_and_lr_counts_share_one():
    # the memoized skew table fills its shape once, so a miss of it leaves
    # the `_order` memo as it was; counting one shape over two contents
    # reads that memo again
    lam, mu = (5, 3, 2, 1), (2, 1)
    sf._schur_skew_terms.cache_clear()
    tb._order.cache_clear()
    terms = sf._schur_skew_terms(lam, mu)
    assert sf._schur_skew_terms.cache_info().misses == 1
    assert sum(c for _nu, c in terms) > 1
    assert tb._order.cache_info().currsize == 0
    shape = SkewShape(lam, mu)
    counts = [tb.count_lr_fillings(shape, nu) for nu in ((4, 3, 1), (3, 3, 2))]
    assert counts == [dict(terms)[(4, 3, 1)], dict(terms)[(3, 3, 2)]]
    info = tb._order.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_size_arguments_are_integers():
    # at a non-integral size the strips had float parts, and a bound of
    # 2.5 let an entry 3 into a tableau
    shape = SkewShape((2, 1), (1,))
    for call in (
        lambda k: tb.enumerate_ssyt_bounded(SkewShape((1,)), k),
        lambda k: tb.enumerate_assyt_bounded(SkewShape((1,)), k),
        lambda k: tb.skew_pieri_terms(k, shape),
        lambda k: tb.skew_pieri(k, shape),
        lambda k: pt.horizontal_strips_above((2, 1), k),
        lambda k: pt.vertical_strips_below((2, 1), k),
    ):
        with pytest.raises(ValueError, match="2.5 is not an integer"):
            call(2.5)
        with pytest.raises(ValueError):
            call("two")
        # None or a list is the same error, not a TypeError from int()
        for bad in (None, [2]):
            with pytest.raises(ValueError,
                               match=re.escape(f"{bad!r} is not an integer")):
                call(bad)
        assert call(2.0) == call("2") == call(2)


def test_fill_of_1000_cells_needs_no_recursion():
    # deeper than Python's recursion limit: the filler keeps its own stack
    row = tb._order((1000,), (), True)
    assert [dict(zip(row[0], v)) for v in tb._fill(row, max_entry=1)] == [
        dict.fromkeys(row[0], 1)]
    two_rows = tb._order((500, 500), (), True)
    (lr,) = tb._fill(two_rows, cap=(500, 500), init_counts={})
    assert len(lr) == 1000
    assert dict(zip(two_rows[0], lr)) == {c: c.row + 1 for c in two_rows[0]}
    assert tb.count_lr_fillings(SkewShape((1000,), (500,)), (500,)) == 1


def _pair_tableaux():
    t1 = tb.ASSYT(SkewShape((3, 3), (1,)), T1_ENTRIES)
    t2 = tb.SSYT(SkewShape((9, 9, 5, 3), (7, 5, 4, 1)), T2_ENTRIES)
    return t1, t2


def test_ssyt_validation():
    sh = SkewShape((2, 1))
    tb.SSYT(sh, {(0, 0): 1, (0, 1): 1, (1, 0): 2})
    with pytest.raises(ValueError):
        tb.SSYT(sh, {(0, 0): 1, (0, 1): 1, (1, 0): 1})  # column not strict
    with pytest.raises(ValueError):
        tb.SSYT(sh, {(0, 0): 2, (0, 1): 1, (1, 0): 3})  # row decreasing
    with pytest.raises(ValueError):
        tb.SSYT(sh, {(0, 0): 1, (0, 1): 1})  # missing cell


def test_assyt_validation():
    sh = SkewShape((2, 1))
    tb.ASSYT(sh, {(0, 0): 3, (0, 1): 1, (1, 0): 2})
    with pytest.raises(ValueError):
        tb.ASSYT(sh, {(0, 0): 2, (0, 1): 2, (1, 0): 1})  # row not strict
    with pytest.raises(ValueError):
        tb.ASSYT(sh, {(0, 0): 2, (0, 1): 1, (1, 0): 3})  # column increasing


@pytest.mark.parametrize("cls", [tb.SSYT, tb.ASSYT])
def test_constructors_keep_every_check(cls):
    # (2,1)/(1) has the two cells (0,1) and (1,0), which are not adjacent,
    # so any positive filling of them is both an SSYT and an ASSYT
    sh = SkewShape((2, 1), (1,))
    t = cls(sh, {(0, 1): 1, (1, 0): 2})
    # plain tuple keys are stored as Cells, not merely as equal tuples
    assert all(type(k) is Cell for k in t.entries)
    assert t.entries == {Cell(0, 1): 1, Cell(1, 0): 2}
    bad = [
        {(0, 1): 1, (0, 2): 1},  # outside the outer shape, count right
        {(0, 1): 1, (2, 0): 1},  # a row above the shape, count right
        {(0, 1): 1, (-1, 0): 1},  # a negative row, count right
        {(0, 1): 1, (1, -1): 1},  # a negative column, count right
        {(0, 0): 1, (1, 0): 1},  # inside the inner shape, count right
        {(0, 1): 1},  # a missing cell
        {(0, 1): 1, (1, 0): 1, (0, 0): 1},  # an extra cell
        {(0, 1): 0, (1, 0): 1},  # a zero entry
        {(0, 1): 1, (1, 0): -3},  # a negative entry
    ]
    for entries in bad:
        with pytest.raises(ValueError):
            cls(sh, entries)
    # a negative row must not wrap around to the top row of (2,2)/(1)
    with pytest.raises(ValueError, match="do not cover"):
        cls(SkewShape((2, 2), (1,)), {(0, 1): 1, (1, 0): 1, (-1, 1): 2})
    with pytest.raises(ValueError, match="entry -3 at Cell"):
        cls(sh, {(0, 1): 1, (1, 0): -3})
    with pytest.raises(ValueError, match="do not cover"):
        cls(SkewShape((2,)), {(0, 0): 1, (0, 1.5): 2})


def test_slides_store_cell_keys():
    t = tb.SSYT(SkewShape((3, 2), (1,)), {(0, 1): 1, (0, 2): 2, (1, 0): 2, (1, 1): 3})
    for hole in [(0, 0), Cell(2, 0)]:
        t2, vacated = tb.jdt_slide(t, hole)
        assert type(vacated) is Cell
        assert all(type(k) is Cell for k in t2.entries)
        back, vac2 = tb.jdt_slide(t2, vacated)
        assert back == t and vac2 == hole


def test_cmd_jdt_rejects_off_shape_input(capsys):
    def run(entries, holes):
        blob = json.dumps({"shape": "2,2/2", "entries": entries, "holes": holes})
        return cli.main(["jdt", blob])

    good = [[1, 0, 5], [1, 1, 5]]
    assert run(good, [[0, 1]]) == 0
    # an entry outside the shape, in its inner shape or at a negative row,
    # or a zero entry
    for entries in ([[1, 0, 5], [1, 2, 5]], [[1, 0, 5], [0, 1, 5]],
                    [[1, 0, 5], [-1, 1, 5]], [[1, 0, 5], [1, 1, 0]]):
        assert run(entries, []) == 2
    # holes at negative or far-off coordinates are no slide position
    for hole in ([-1, 0], [0, -1], [-1, -1], [-2, 2], [100, 100], [2, 5]):
        assert run(good, [hole]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.count("symop: error:") == 10


def test_tableau_entries_must_be_integral():
    sh = SkewShape((2,))
    with pytest.raises(ValueError, match="1.7 is not an integer"):
        tb.SSYT(sh, {(0, 0): 1.7, (0, 1): 2})
    with pytest.raises(ValueError, match="1.7 is not an integer"):
        tb.ASSYT(sh, {(0, 0): 2, (0, 1): 1.7})
    t = tb.SSYT(sh, {(0, 0): 1.0, (0, 1): 2})
    assert t.entries == {Cell(0, 0): 1, Cell(0, 1): 2}
    assert all(type(v) is int for v in t.entries.values())
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        tb.enumerate_ssyt(sh, (1.5, 0.5))


def test_rule_shapes_equal_validated_shapes():
    shapes = [SkewShape(outer, inner)
              for outer in pt.partitions_upto(4)
              for inner in pt.sub_partitions(outer, max_size=2)]
    lr = [t for a in shapes[::3] for b in shapes[::2] for t in tb.skew_lr_terms(a, b)]
    pieri = [t for k in range(4) for a in shapes for t in tb.skew_pieri_terms(k, a)]
    assert len(lr) > 1000 and len(pieri) > 500
    for _sign, sh in lr + pieri:
        # the public constructor canonicalizes, so equality means canonical
        assert sh == SkewShape(sh.outer, sh.inner)
    with pytest.raises(ValueError):
        SkewShape((1,), (2,))
    with pytest.raises(ValueError):
        SkewShape((2, 1), (1, 1, 1))


def test_reverse_reading_word_examples():
    one = tb.SSYT(SkewShape((1,)), {(0, 0): 3})
    assert tb.reverse_reading_word(one) == (3,)
    row = tb.SSYT(SkewShape((3,)), {(0, 0): 1, (0, 1): 1, (0, 2): 2})
    assert tb.reverse_reading_word(row) == (2, 1, 1)


def test_assyt_reading_word_examples():
    one = tb.ASSYT(SkewShape((1,)), {(0, 0): 2})
    assert tb.assyt_reverse_reading_word(one) == (2,)
    two = tb.ASSYT(SkewShape((2,)), {(0, 0): 2, (0, 1): 1})
    word = tb.assyt_reverse_reading_word(two)
    assert word == tb.reverse_reading_word(tb.transpose_rotate(two))


def test_worked_pair_reading_words():
    t1, t2 = _pair_tableaux()
    w1 = tb.assyt_reverse_reading_word(t1)
    w2 = tb.reverse_reading_word(t2)
    assert w1 == (2, 1, 3, 3, 5)
    assert w2 == (4, 2, 5, 4, 4, 1, 3, 6, 5)
    pair = w1 + w2
    assert "".join(map(str, pair)) == "21335425441365"
    assert tb.is_delta_lattice(pair, (5, 3, 2, 1))
    assert not tb.is_lattice(pair)


def test_assyt_word_equals_transpose_rotate_word():
    for outer in pt.partitions_upto(4):
        for inner in pt.sub_partitions(outer):
            shape = SkewShape(outer, inner)
            for t in tb.enumerate_assyt_bounded(shape, 3):
                assert tb.assyt_reverse_reading_word(t) == tb.reverse_reading_word(
                    tb.transpose_rotate(t)
                )


def test_lattice_examples():
    assert tb.is_lattice((1, 1, 2, 1, 3))
    assert not tb.is_lattice((2, 1, 1))
    assert tb.is_delta_lattice((2, 1), (1,))
    assert not tb.is_delta_lattice((3, 1), (1,))


def test_enumerate_ssyt_examples():
    assert len(tb.enumerate_ssyt(SkewShape((1,)), (1,))) == 1
    assert len(tb.enumerate_ssyt(SkewShape((2, 1)), (2, 1))) == 1
    found = tb.enumerate_ssyt(SkewShape((2, 2), (1,)), (2, 1))
    assert len(found) == 1
    assert sf.hall_inner(sf.skew_schur((2, 2), (1,)), sf.h((2, 1))) == 1
    # wrong total size gives nothing, also when the content would fit
    # under a cap
    assert tb.enumerate_ssyt(SkewShape((2,)), (1,)) == []
    assert tb.enumerate_ssyt(SkewShape((2,)), (2, 1)) == []
    assert tb.enumerate_assyt(SkewShape((2,)), (1, 1, 1)) == []
    assert tb.enumerate_lr_fillings(SkewShape((2,)), (2, 1)) == []
    assert tb.count_lr_fillings(SkewShape((2,)), (2, 1)) == 0


def test_ssyt_counts_match_h_pairing_up_to_6():
    for outer in pt.partitions_upto(6):
        for inner in pt.sub_partitions(outer):
            shape = SkewShape(outer, inner)
            expansion = sf.skew_schur(shape)
            for content in pt.partitions_of(shape.size):
                count = len(tb.enumerate_ssyt(shape, content))
                assert count == sf.hall_inner(expansion, sf.h(content))


def test_psi_single_cell():
    t = tb.SSYT(SkewShape((1,)), {(0, 0): 1})
    img = tb.psi(t)
    assert img.entries == {Cell(0, 0): 1}


def test_psi_worked_example():
    t = tb.SSYT(
        SkewShape((6, 4, 3, 2), (2, 1)),
        {
            (0, 2): 1, (0, 3): 1, (0, 4): 1, (0, 5): 1,
            (1, 1): 1, (1, 2): 2, (1, 3): 2,
            (2, 0): 2, (2, 1): 3, (2, 2): 3,
            (3, 0): 3, (3, 1): 4,
        },
    )
    want = tb.ASSYT(
        SkewShape((6, 4, 3, 2), (2, 1)),
        {
            (0, 2): 4, (0, 3): 3, (0, 4): 2, (0, 5): 1,
            (1, 1): 5, (1, 2): 2, (1, 3): 1,
            (2, 0): 3, (2, 1): 2, (2, 2): 1,
            (3, 0): 3, (3, 1): 1,
        },
    )
    img = tb.psi(t)
    assert img == want
    assert tb.psi_inverse(img) == t
    assert img.content() == pt.conjugate(t.content())


def test_psi_requires_lattice_word():
    t = tb.SSYT(SkewShape((1,)), {(0, 0): 2})
    with pytest.raises(ValueError):
        tb.psi(t)


def test_psi_bijection_up_to_5():
    for beta in pt.partitions_upto(5):
        for beta_minus in pt.sub_partitions(beta):
            shape = SkewShape(beta, beta_minus)
            for lam in pt.partitions_of(shape.size):
                fillings = tb.enumerate_lr_fillings(shape, pt.conjugate(lam))
                lattice_assyt = [
                    t
                    for t in tb.enumerate_assyt(shape, lam)
                    if tb.is_lattice(tb.assyt_reverse_reading_word(t))
                ]
                images = [tb.psi(t) for t in fillings]
                assert sorted(images, key=repr) == sorted(lattice_assyt, key=repr)
                for t in fillings:
                    assert tb.psi_inverse(tb.psi(t)) == t
                for t in lattice_assyt:
                    assert tb.psi(tb.psi_inverse(t)) == t


def test_jdt_slide_no_candidate_is_unchanged():
    # the hole is a corner of the outer shape as well, so nothing can move
    t = tb.SSYT(SkewShape((2, 1), (2,)), {(1, 0): 1})
    t2, vacated = tb.jdt_slide(t, Cell(0, 1))
    assert vacated is None and t2 == t


def test_jdt_slide_rejects_bad_hole():
    t = tb.SSYT(SkewShape((2, 1), (1,)), {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        tb.jdt_slide(t, Cell(5, 5))
    with pytest.raises(ValueError):
        tb.jdt_slide(t, Cell(0, 1))  # a filled cell is not a slide position


def test_jdt_equal_entries_tie():
    # both neighbours equal: the column neighbour must move so the slide
    # stays reversible
    t = tb.SSYT(SkewShape((2, 2), (2,)), {(1, 0): 5, (1, 1): 5})
    t2, vacated = tb.jdt_slide(t, Cell(0, 1))
    assert vacated == Cell(1, 1)
    assert t2.entries == {Cell(0, 1): 5, Cell(1, 0): 5}
    back, vac2 = tb.jdt_slide(t2, vacated)
    assert back == t and vac2 == Cell(0, 1)


def test_jdt_forward_reverse_identity_up_to_5():
    for outer in pt.partitions_upto(5):
        for inner in pt.sub_partitions(outer):
            shape = SkewShape(outer, inner)
            if shape.size == 0:
                continue
            bound = min(shape.size, 4)
            for t in tb.enumerate_ssyt_bounded(shape, bound):
                for hole in pt.corners(inner):
                    t2, vacated = tb.jdt_slide(t, hole)
                    if vacated is None:
                        continue
                    back, vac2 = tb.jdt_slide(t2, vacated)
                    assert back == t and vac2 == hole
                for hole in pt.addable_cells(outer):
                    t2, vacated = tb.jdt_slide(t, hole)
                    if vacated is None:
                        continue
                    back, vac2 = tb.jdt_slide(t2, vacated)
                    assert back == t and vac2 == hole


def test_jdt_case_inventory_for_worked_example():
    # alpha = (4,1,1), theta = (2,1): every (gamma, delta) family slides
    # uniformly into a single case, and the inventory is two families each
    # of cases a, b, c
    alpha, theta = (4, 1, 1), (2, 1)
    want = {
        ((4, 2, 1), (2, 1, 1)): "a",
        ((5, 1, 1), (2, 1, 1)): "a",
        ((4, 1, 1, 1), (3, 1)): "b",
        ((4, 2, 1), (3, 1)): "b",
        ((5, 1, 1), (3, 1)): "c",
        ((4, 1, 1, 1), (2, 1, 1)): "c",
    }
    got = {}
    for gamma in pt.add_set(alpha):
        for delta in pt.add_restrict(theta, alpha):
            cases = set()
            for t in tb.enumerate_ssyt_bounded(SkewShape(gamma, delta), 6):
                case, _t2, _vac = tb.jdt_case(alpha, theta, gamma, delta, t)
                cases.add(case)
            assert len(cases) == 1, (gamma, delta, cases)
            got[(gamma, delta)] = cases.pop()
    assert got == want
    assert pt.add_complement(theta, alpha) == [(2, 2)]
    assert len(pt.add_set(alpha)) - len(pt.add_complement(theta, alpha)) == 2


def test_verify_jdt_bijection_examples():
    assert tb.verify_jdt_bijection((4, 1, 1), (2, 1)).passed
    assert tb.verify_jdt_bijection((2, 1), ()).passed
    with pytest.raises(ValueError):
        tb.verify_jdt_bijection((2,), (1, 1))


def _dict_slide(entries, hole, step):
    """The reference slide on an entry dict keyed by cells: slide the hole
    through it in place and return the cell it vacates, or None when no
    neighbour can move.  Forward (step 1) the smaller of the right and
    upper neighbours moves in, reverse (step -1) the larger of the left and
    lower ones; on a tie the column neighbour moves."""
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
    return None if (r, c) == hole else Cell(r, c)


def test_in_place_slide_agrees_with_jdt_slide_up_to_4():
    # every slide that verify_jdt_bijection makes with |alpha| <= 4, on the
    # value lists that _fill yields and the slot plan it slides them
    # through, against the reference dict slide and jdt_slide
    checked = 0
    for alpha in pt.partitions_upto(4):
        bound = max(sum(alpha), 1)
        for theta in pt.sub_partitions(alpha):
            for gamma in pt.add_set(alpha):
                for delta in pt.add_restrict(theta, alpha):
                    hole = tb._added_cell(theta, delta)
                    shape = SkewShape(gamma, delta)
                    order, row_at, col_at, stops = tb._slide_plan(
                        gamma, delta, theta)
                    cells = order[0]
                    slots = [*cells, hole]
                    for vals in tb._fill(order, max_entry=bound):
                        d = dict(zip(cells, vals))
                        t = tb.SSYT(shape, d)
                        vals.append(0)
                        end = tb._slide_slots(vals, len(cells), row_at, col_at, 1)
                        vacated = _dict_slide(d, hole, 1)
                        t2, want = tb.jdt_slide(t, hole)
                        assert vacated == want
                        assert d == t2.entries
                        # the slots agree with the reference, and the stop
                        # reads beta/theta in reading order
                        assert slots[end] == (vacated or hole)
                        assert {c: v for c, v in zip(slots, vals)
                                if c != slots[end]} == d
                        beta, getter = stops[end]
                        assert beta == pt.remove_cell(gamma, slots[end])
                        assert getter(vals) == tuple(
                            d[c] for c in tb._ssyt_reading_cells(
                                SkewShape(beta, theta)))
                        if vacated is not None:
                            # the reverse slide undoes it in place, and so
                            # does jdt_slide
                            assert _dict_slide(d, vacated, -1) == hole
                            assert d == t.entries
                            assert tb.jdt_slide(t2, vacated) == (t, hole)
                        checked += 1
    assert checked == 1656


def _slide_row_on_tie(vals, hole, row_at, col_at, step):
    """tb._slide_slots with the tie rule flipped: the row neighbour moves."""
    while True:
        row, col = row_at[hole], col_at[hole]
        if col >= 0 and (row < 0 or step * vals[col] < step * vals[row]):
            nxt = col
        elif row >= 0:
            nxt = row
        else:
            return hole
        vals[hole] = vals[nxt]
        hole = nxt


def test_flipped_tie_rule_fails_the_bijection_with_a_tableau(monkeypatch, capsys):
    monkeypatch.setattr(tb, "_slide_slots", _slide_row_on_tie)
    failures = [
        f
        for alpha in pt.partitions_upto(4)
        for theta in pt.sub_partitions(alpha)
        for f in tb.verify_jdt_bijection(alpha, theta).failures
    ]
    assert len(failures) == 34
    # at (2,1)/() cases a+b miss an expected tableau, which is named, and
    # case c reaches a wrong outcome, whose unslid input and hole are named
    report = tb.verify_jdt_bijection((2, 1), ())
    assert [f.params["part"] for f in report.failures] == ["cases a+b", "case c"]
    missed, slid = (json.loads(f.params["tableau"]) for f in report.failures)
    assert missed["shape"] == "3/0" and "holes" not in missed
    assert slid["shape"] == "3,1/1" and slid["holes"] == [[0, 0]]
    # the flipped rule is what fails, not the tableaux: each failure names
    # a semistandard tableau, and a legal hole when it has one, so `symop
    # jdt` replays every failure under the real rule
    monkeypatch.undo()
    with_holes = 0
    for f in failures:
        assert f.params["tableau"] in f.describe()
        blob = json.loads(f.params["tableau"])
        tb.SSYT(pt.parse_skew(blob["shape"]),
                {(r, c): v for r, c, v in blob["entries"]})
        with_holes += "holes" in blob
        assert cli.main(["jdt", f.params["tableau"]]) == 0, f.params
    assert with_holes == 22
    capsys.readouterr()


def test_skew_pieri_one_box():
    got = tb.skew_pieri(1, SkewShape((2, 1), (1,)))
    want = sf.SymFunc("s", {(3,): 1, (2, 1): 2, (1, 1, 1): 1})
    assert got == want
    terms = tb.skew_pieri_terms(1, SkewShape((2, 1), (1,)))
    assert (-1, SkewShape((2, 1))) in terms
    assert (1, SkewShape((3, 1), (1,))) in terms
    assert len(terms) == 4


def test_skew_pieri_classical_degeneration():
    # empty inner shape: no negative terms, plain Pieri
    for gamma in pt.partitions_upto(4):
        for k in range(1, 4):
            terms = tb.skew_pieri_terms(k, SkewShape(gamma))
            assert all(sign == 1 for sign, _ in terms)
            assert {sh.outer for _, sh in terms} == set(
                pt.horizontal_strips_above(gamma, k)
            )
            assert tb.skew_pieri(k, SkewShape(gamma)) == sf.mul(
                sf.schur((k,)), sf.schur(gamma)
            )


def test_skew_pieri_terms_stop_at_the_rows_of_the_inner_shape(monkeypatch):
    # a vertical strip removes at most one cell per row, so a huge k asks
    # for the strips below the inner shape at most len(inner) + 1 times
    calls = []
    real = pt.vertical_strips_below

    def counted(beta, i):
        calls.append(i)
        return real(beta, i)

    monkeypatch.setattr(pt, "vertical_strips_below", counted)
    k, shape = 10**4, SkewShape((3, 2, 1), (2, 1))
    terms = tb.skew_pieri_terms(k, shape)
    assert len(calls) <= len(shape.inner) + 1
    # the same terms as a loop over every i up to k
    assert terms == [
        (-1 if i % 2 else 1, SkewShape(gp, bm))
        for i in range(k + 1)
        for bm in real(shape.inner, i)
        for gp in pt.horizontal_strips_above(shape.outer, k - i)
    ]


def test_skew_pieri_matches_products():
    shape = SkewShape((2,), (1,))
    assert tb.skew_pieri(2, shape) == sf.mul(sf.schur((2,)), sf.schur((1,)))


def test_skew_lr_terms_pinned():
    # the signed shapes of skew_lr_terms, in order, over every ordered pair
    # of shapes with outer size <= 4 and inner size <= 2; the digest was
    # taken before the tableau enumeration was sped up
    shapes = [SkewShape(outer, inner)
              for outer in pt.partitions_upto(4)
              for inner in pt.sub_partitions(outer, max_size=2)]
    digest = hashlib.sha256()
    count = 0
    for a in shapes:
        for b in shapes:
            for sign, sh in tb.skew_lr_terms(a, b):
                digest.update(f"{a};{b};{sign};{sh}\n".encode())
                count += 1
    assert (len(shapes), count) == (37, 8666)
    assert digest.hexdigest() == (
        "acd09d46363b487a8788b266c30b3e2862ce56977efb03301e7fa5e2e7f2a978"
    )


def test_skew_lr_views_agree_with_the_tableau_pairs():
    # over every ordered pair of shapes with outer size <= 4 and inner size
    # <= 2: the product is the signed sum of skew Schur functions over the
    # validated tableau pairs, and the terms are the (sign, shape) of those
    # pairs in the same order; the digest of the pairs themselves was taken
    # before the three views shared one enumeration
    shapes = [SkewShape(outer, inner)
              for outer in pt.partitions_upto(4)
              for inner in pt.sub_partitions(outer, max_size=2)]
    digest = hashlib.sha256()
    for a in shapes:
        for b in shapes:
            pairs = list(tb.skew_lr_pairs(a, b))
            for sign, t1, t2, sh in pairs:
                digest.update(
                    f"{a};{b};{sign};{sorted(t1.entries.items())};"
                    f"{sorted(t2.entries.items())};{t1.shape};{t2.shape};{sh}\n"
                    .encode()
                )
            assert tb.skew_lr_terms(a, b) == [(sign, sh) for sign, _t1, _t2, sh in pairs]
            assert tb.skew_lr_product(a, b) == sf.linear_combination(
                (sign, sf.skew_schur(sh)) for sign, _t1, _t2, sh in pairs
            )
    assert digest.hexdigest() == (
        "54288ebcfef43742f4d10d97899a886f6cd40aaeed35b785643292bae2a59aeb"
    )


def test_skew_lr_product_and_terms_build_no_tableau(monkeypatch):
    a, b = pt.parse_skew("3,1/1"), pt.parse_skew("2,2/1")
    want_terms = [(sign, sh) for sign, _t1, _t2, sh in tb.skew_lr_pairs(a, b)]
    want = sf.mul(sf.skew_schur(a), sf.skew_schur(b))

    def refuse(self, shape, entries):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(tb.SSYT, "__init__", refuse)
    monkeypatch.setattr(tb.ASSYT, "__init__", refuse)
    with pytest.raises(AssertionError, match="a tableau was built"):
        next(tb.skew_lr_pairs(a, b))
    assert tb.skew_lr_terms(a, b) == want_terms
    assert tb.skew_lr_product(a, b) == want


def test_skew_lr_product_counts_each_content_once(monkeypatch):
    # bm = (2) and bm = (1,1) leave one cell each, so their ASSYT fillings
    # repeat every content of one cell; the product counts the SSYT
    # completions of each content once, the terms run them per filling
    a, b = pt.parse_skew("2,1"), pt.parse_skew("3,2,1/2,1")
    want = sf.mul(sf.skew_schur(a), sf.skew_schur(b))
    assert tb.skew_lr_product(a, b) == want  # fills the memo tables
    fill = tb._fill
    ssyt_calls = []
    # the ASSYT orders are the memoized orders of b.inner/bm
    assyt_orders = [tb._order(b.inner, bm, False)
                    for bm in pt.sub_partitions(b.inner)]

    def counted(order, **kw):
        ssyt_calls.append(not any(order is o for o in assyt_orders))
        return fill(order, **kw)

    monkeypatch.setattr(tb, "_fill", counted)
    assert tb.skew_lr_product(a, b) == want
    product_calls = sum(ssyt_calls)
    ssyt_calls.clear()
    tb.skew_lr_terms(a, b)
    terms_calls = sum(ssyt_calls)
    assert 0 < product_calls < terms_calls


def test_skew_lr_classical_case():
    got = tb.skew_lr_product(SkewShape((1,)), SkewShape((1,)))
    assert got == sf.SymFunc("s", {(2,): 1, (1, 1): 1})


def test_skew_lr_small_product():
    a = SkewShape((1,))
    b = SkewShape((2, 1), (1,))
    got = tb.skew_lr_product(a, b)
    assert got == sf.SymFunc("s", {(3,): 1, (2, 1): 2, (1, 1, 1): 1})
    assert got == tb.skew_pieri(1, b)


def test_worked_pair_is_an_enumerated_contribution():
    # the displayed pair passes every rule condition and is generated by
    # the same filler the enumeration uses, contributing -1 times the skew
    # Schur function of (9,9,5,3)/(1)
    alpha, delta = (7, 5, 5, 4, 3, 1), (5, 3, 2, 1)
    gamma, beta = (7, 5, 4, 1), (3, 3)
    t1, t2 = _pair_tableaux()
    target = tuple(alpha[i] - pt.part_at(delta, i) for i in range(len(alpha)))
    combined = Counter(T1_ENTRIES.values()) + Counter(T2_ENTRIES.values())
    assert tuple(combined.get(i + 1, 0) for i in range(len(alpha))) == target
    pair_word = tb.assyt_reverse_reading_word(t1) + tb.reverse_reading_word(t2)
    assert tb.is_delta_lattice(pair_word, delta)
    assert t1.shape == SkewShape(beta, (1,))
    assert (-1) ** t1.shape.size == -1
    # the T1 slice of the enumeration (beta_minus = (1)) generates t1
    init = {i: part for i, part in enumerate(delta, start=1)}
    order1 = tb._order(t1.shape.outer, t1.shape.inner, False)
    cells1 = order1[0]
    t1_candidates = list(tb._fill(order1, cap=list(target), init_counts=init))
    assert T1_ENTRIES in [dict(zip(cells1, v)) for v in t1_candidates]
    # and with t1 fixed, the T2 slice over gamma_plus = (9,9,5,3) generates t2
    counts = dict(init)
    for v in T1_ENTRIES.values():
        counts[v] = counts.get(v, 0) + 1
    remaining = tuple(
        target[i] - sum(1 for v in T1_ENTRIES.values() if v == i + 1)
        for i in range(len(alpha))
    )
    order2 = tb._order(t2.shape.outer, t2.shape.inner, True)
    cells2 = order2[0]
    t2_candidates = list(tb._fill(order2, cap=remaining, init_counts=counts))
    assert T2_ENTRIES in [dict(zip(cells2, v)) for v in t2_candidates]


def test_skew_corners_rhs_examples():
    got = tb.skew_corners_rhs((2, 1), (1,))
    assert got == sf.SymFunc("s", {(2,): 1, (1, 1): 1})
    assert got == sf.kronecker(sf.skew_schur((2, 1), (1,)), sf.schur((1, 1)))
    # empty theta reduces to the straight corner formula
    for alpha in pt.partitions_upto(5):
        want = sf.scale(pt.noc(alpha) - 1, sf.schur(alpha))
        for b in pt.addremove_set(alpha):
            want = sf.add(want, sf.schur(b))
        assert tb.skew_corners_rhs(alpha, ()) == want
    lhs = sf.kronecker(sf.skew_schur((4, 1, 1), (2, 1)), sf.schur((2, 1)))
    assert tb.skew_corners_rhs((4, 1, 1), (2, 1)) == lhs
    with pytest.raises(ValueError):
        tb.skew_corners_rhs((2,), (1, 1))
