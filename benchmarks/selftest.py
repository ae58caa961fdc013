"""Self-test of the benchmark's correctness gates.

    PYTHONPATH=src python3 benchmarks/selftest.py

Runs each workload on a small real input, then its gate on the outputs:
once with the true expectations, which must pass, and once for each
corruption listed below, which must fail.  Exits 1 if any gate misses a
corruption.
"""

import random
import sys

from symop import coeffs
from symop import partitions as pt
from symop import symfunc as sf

import workloads
from expected import EXPECTED_RANK, PINNED_INSTANCES


def all_ok(ops):
    return all(ok for _key, _dt, ok in ops)


def check_catalog():
    ids = ["kb1", "straightcorners"]
    pinned = {i: PINNED_INSTANCES[i] for i in ids}
    out = workloads.latencies(workloads.run_verify_catalog(ids))
    good = all_ok(workloads.check_verify_catalog(ids, out, pinned))
    corrupt = dict(pinned, kb1=pinned["kb1"] + 1)
    bad = {"pinned count + 1": all_ok(workloads.check_verify_catalog(ids, out, corrupt))}
    return good, bad


def check_skew_lr():
    pairs = workloads.make_skew_lr(random.Random(0))[:20]
    out = workloads.latencies(workloads.run_skew_lr(pairs))
    good = all_ok(workloads.check_skew_lr(pairs, out))
    target = pairs[7]

    def off_by_one(a, b):
        f = sf.mul(sf.skew_schur(a), sf.skew_schur(b))
        return f + sf.schur((1,)) if (a, b) == target else f

    bad = {"expected product + s[1]":
           all_ok(workloads.check_skew_lr(pairs, out, expected=off_by_one))}
    return good, bad


def check_basis_rank():
    deg4 = pt.partitions_of(4)
    conversions = [(lam, basis) for lam in deg4 for basis in ("p", "h", "e")]
    kron = [(deg4[0], deg4[1]), (deg4[2], deg4[2])]
    ranks = [("UD", workloads.rank_words()[0])]
    inputs = (conversions, kron, ranks)
    out = workloads.latencies(workloads.run_basis_rank(inputs))
    good = all_ok(workloads.check_basis_rank(inputs, out))

    lam0, mu0 = kron[1]
    nu0 = next(iter(out[2 * len(conversions) + 1][2].terms))

    def kron_off(lam, mu, nu):
        return coeffs.kron_coeff(lam, mu, nu) + ((lam, mu, nu) == (lam0, mu0, nu0))

    # the first round trip comes back with an extra s[1^4]
    key, dt, (f, there, back) = out[0]
    broken = [(key, dt, (f, there, back + sf.schur((1, 1, 1, 1))))] + out[1:]
    bad = {
        "expected rank - 1": all_ok(workloads.check_basis_rank(
            inputs, out, expected_rank=EXPECTED_RANK - 1)),
        "one kron_coeff + 1": all_ok(workloads.check_basis_rank(
            inputs, out, kron=kron_off)),
        "round trip + s[1^4]": all_ok(workloads.check_basis_rank(inputs, broken)),
    }
    return good, bad


def main():
    failed = False
    for name, check in (("verify_catalog", check_catalog),
                        ("skew_lr", check_skew_lr),
                        ("basis_rank", check_basis_rank)):
        good, bad = check()
        print(f"{name}: true expectations pass={good}")
        failed |= not good
        for corruption, passed in bad.items():
            print(f"  {corruption}: pass={passed}: {'FAIL' if passed else 'ok'}")
            failed |= passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
