"""The three benchmark workloads: inputs from a seed, the timed call
sequence into symop's public functions, and the correctness gate.

Why these three (each is a cold process, like every `symop` invocation):

- verify_catalog: the system's headline job, `run_suite` over all 31
  catalog entries at bounds (3, 5).  Very many small products, bound by
  SymFunc bookkeeping and `OperatorExpr.apply`; where memoising generator
  actions or running the catalog in parallel must show.
- skew_lr: every ordered pair of the 86 skew shapes with outer size <= 5
  and inner size <= 3 through `tableaux.skew_lr_product`.  Heavy on
  tableau enumeration and never touches `operators`, so it is the
  workload that bypasses operator changes.
- basis_rank: few, large objects.  Schur functions of degree 9-11 round
  trip through p, and those of degree 9-10 through h and e too; Kronecker
  products at degree 8; two stacked
  ranks over 49 operator words at domain degree 7.  Drives the same
  `symfunc` layer with big dicts, plus characters, the h/e determinant
  tables and big-integer Bareiss rank.

An op is one catalog entry, one skew product, or one conversion, product
or rank call.  A runner returns one (key, start, end, output) per op, with
perf_counter readings, where the key names the op the same way in every
pass whatever the order.  The pass turns start and end into a latency
scaled to the reference speed (speed.py), and the workload's gate turns
(key, latency_s, output) into (key, latency_s, ok).  An op whose output is
wrong counts as failed.

The seed only orders the work, so every seed does the same total work and
seeds are comparable.  The order of a catalog run moves the cost of
filling memo tables between entries.
"""

import random
import time

from symop import coeffs
from symop import identities as idn
from symop import operators as op
from symop import partitions as pt
from symop import symfunc as sf
from symop import tableaux as tb

from expected import EXPECTED_RANK, PINNED_INSTANCES, RANK_DEGREE

CATALOG_BOUNDS = idn.Bounds(max_ab=3, max_g=5)


# ---------------------------------------------------------------------------
# inputs

def make_verify_catalog(rng):
    ids = sorted(PINNED_INSTANCES)
    rng.shuffle(ids)
    return ids


def make_skew_lr(rng):
    shapes = [
        pt.SkewShape(a, d)
        for a in pt.partitions_upto(5)
        for d in pt.sub_partitions(a, max_size=3)
    ]
    pairs = [(x, y) for x in shapes for y in shapes]
    rng.shuffle(pairs)
    return pairs


def rank_words():
    small = pt.partitions_upto(3)
    ud = [op.U(a) * op.D(b) for a in small for b in small]
    du = [op.D(b) * op.U(a) for a in small for b in small]
    return ud, du


def make_basis_rank(rng):
    # h and e stop at degree 10: at degree 11 the determinant expansions
    # alone take longer than the rest of the pass
    conversions = [
        (lam, basis)
        for n in (9, 10, 11)
        for lam in pt.partitions_of(n)
        for basis in (("p", "h", "e") if n < 11 else ("p",))
    ]
    rng.shuffle(conversions)
    deg8 = pt.partitions_of(8)
    kron = [(lam, mu) for i, lam in enumerate(deg8) for mu in deg8[i:]]
    rng.shuffle(kron)
    # the word lists keep a fixed order: their order is the column order
    # of the Bareiss matrix, which decides the pivots and so the cost
    ud, du = rank_words()
    ranks = [("UD", ud), ("DU", du)]
    rng.shuffle(ranks)
    return conversions, kron, ranks


MAKERS = {
    "verify_catalog": make_verify_catalog,
    "skew_lr": make_skew_lr,
    "basis_rank": make_basis_rank,
}


def make_inputs(workload, seed, rnd=0):
    """Inputs of pass `rnd` of a run with this seed.  Each pass of a run
    takes its own order, so an op's median over the passes of a run does
    not depend on one order's placement of memo-table fills."""
    return MAKERS[workload](random.Random(f"{seed}/{rnd}"))


# ---------------------------------------------------------------------------
# timed call sequences
#
# A runner makes only the library calls and returns one (key, start, end,
# output) per op.  The gates below check those outputs after the clocks
# have stopped, the tracer is gone and the memo counters are read, so the
# checker's own calls are neither timed nor traced, and they cannot warm
# a memo table that a later op reads.

def run_verify_catalog(ids):
    # One call, so that a parallel `run_suite` shows.  Entries run one after
    # another in the order given, so each one's interval follows from the
    # `elapsed` of the reports before it.
    start = time.perf_counter()
    reports = idn.run_suite(CATALOG_BOUNDS, ids=ids)
    out = []
    for r in reports:
        out.append((r.identity, start, start + r.elapsed, r))
        start += r.elapsed
    return out


def run_skew_lr(pairs):
    clock = time.perf_counter
    out = []
    for a, b in pairs:
        t0 = clock()
        got = tb.skew_lr_product(a, b)
        out.append((f"{a}*{b}", t0, clock(), got))
    return out


def run_basis_rank(inputs):
    conversions, kron, ranks = inputs
    clock = time.perf_counter
    out = []
    for lam, basis in conversions:
        f = sf.schur(lam)
        t0 = clock()
        there = sf.to_basis(f, basis)
        t1 = clock()
        back = sf.to_basis(there, "s")
        t2 = clock()
        out.append((f"s->{basis} {lam}", t0, t1, (f, there, back)))
        out.append((f"{basis}->s {lam}", t1, t2, None))
    for lam, mu in kron:
        a, b = sf.schur(lam), sf.schur(mu)
        t0 = clock()
        got = sf.kronecker(a, b)
        out.append((f"kron {sorted((lam, mu))}", t0, clock(), got))
    for label, words in ranks:
        t0 = clock()
        r = op.stacked_rank(words, RANK_DEGREE)
        out.append((f"rank {label}", t0, clock(), r))
    return out


RUNNERS = {
    "verify_catalog": run_verify_catalog,
    "skew_lr": run_skew_lr,
    "basis_rank": run_basis_rank,
}


def latencies(out, duration=lambda start, end: end - start):
    """Runner output -> one (key, latency_s, output) per op, the latency
    being `duration(start, end)`."""
    return [(key, duration(start, end), got) for key, start, end, got in out]


# ---------------------------------------------------------------------------
# gates: (inputs, [(key, latency_s, output)]) -> one (key, latency_s, ok)
# per op

def check_verify_catalog(ids, out, pinned=PINNED_INSTANCES):
    """Every entry passes and checked exactly its pinned instance count,
    and the run covered exactly the pinned entries."""
    ops = [(key, dt, r.passed and r.instances == pinned.get(key))
           for key, dt, r in out]
    if sorted(key for key, _dt, _r in out) != sorted(pinned):
        ops.append(("catalog entries", 0.0, False))
    return ops


def check_skew_lr(pairs, out, expected=None):
    """`expected(a, b)` gives the product to compare against; the default
    is the direct product of the two skew Schur functions."""
    if expected is None:
        memo = {}

        def schur_of(shape):
            f = memo.get(shape)
            if f is None:
                f = memo[shape] = sf.skew_schur(shape)
            return f

        def expected(a, b):
            return sf.mul(schur_of(a), schur_of(b))

    return [(key, dt, got == expected(a, b))
            for (a, b), (key, dt, got) in zip(pairs, out)]


def kron_gate(lam, mu, product, kron=coeffs.kron_coeff):
    """Every Schur coefficient of s_lam * s_mu equals kron_coeff."""
    n = sum(lam)
    if any(sum(nu) != n for nu in product.terms):
        return False
    return all(
        product.terms.get(nu, 0) == kron(lam, mu, nu)
        for nu in pt.partitions_of(n)
    )


def check_basis_rank(inputs, out, expected_rank=EXPECTED_RANK, kron=coeffs.kron_coeff):
    """Round trips return their input through the requested basis, Kronecker
    products match `kron`, and every rank is `expected_rank`.  Both ops of
    a round trip share its verdict."""
    conversions, kron_pairs, _ranks = inputs
    n_conv, n_kron = 2 * len(conversions), len(kron_pairs)
    ops = []
    for i, (lam, basis) in enumerate(conversions):
        key_there, dt_there, (f, there, back) = out[2 * i]
        key_back, dt_back, _ = out[2 * i + 1]
        ok = there.basis == basis and back == f
        ops += [(key_there, dt_there, ok), (key_back, dt_back, ok)]
    for (lam, mu), (key, dt, got) in zip(kron_pairs, out[n_conv:n_conv + n_kron]):
        ops.append((key, dt, kron_gate(lam, mu, got, kron)))
    for key, dt, r in out[n_conv + n_kron:]:
        ops.append((key, dt, r == expected_rank))
    return ops


GATES = {
    "verify_catalog": check_verify_catalog,
    "skew_lr": check_skew_lr,
    "basis_rank": check_basis_rank,
}
