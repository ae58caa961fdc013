"""One cold benchmark process: import symop, build inputs, run one timed pass.

Usage: child.py MODE WORKLOAD SEED ROUND T_SPAWN

MODE is `setup` (import only), `plain` (timed pass) or `traced` (timed
pass with the layer tracer installed).  The inputs depend on SEED and ROUND,
the pass's index within the run.  T_SPAWN is the parent's
CLOCK_MONOTONIC reading just before it started this process, so set-up
time spans process start, interpreter start-up and `import symop`.
Prints one JSON object on stdout.

A pass's times are scaled to the reference speed by the reference unit's
time sampled throughout the pass (speed.py); `wall_raw_s` is its wall time
as measured.  Set-up time is reported as measured: scaling it by the
reference unit made it noisier, not steadier.
"""

import sys
import time

import symop

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def peak_rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pass_result(workload, seed, rnd, traced):
    import layertrace
    import speed
    import workloads

    modules = {name: getattr(symop, name) for name in layertrace.LAYERS}
    inputs = workloads.make_inputs(workload, seed, rnd)
    tables = layertrace.memo_tables(modules)
    before = layertrace.memo_snapshot(tables, modules["coeffs"])
    tracer = None
    if traced:
        tracer = layertrace.Tracer()
        tracer.install(modules)
    run = workloads.RUNNERS[workload]
    with speed.SpeedSampler() as sampler:
        c0 = time.process_time()
        t0 = time.perf_counter()
        results = run(inputs)
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    after = layertrace.memo_snapshot(tables, modules["coeffs"])
    # peak memory of the timed phase, before the gate computes its own
    # expectations
    peak_rss_mb = peak_rss()
    wall = sampler.scaled(t0, t1)
    # the sampler's own time is in the process's CPU time too
    sampling = sampler.handler_s(t0, t1)
    timed = workloads.latencies(results, sampler.scaled)
    ops = workloads.GATES[workload](inputs, timed)
    out = {
        "wall_s": wall,
        "wall_raw_s": t1 - t0,
        "cpu_s": (cpu - sampling) * wall / (t1 - t0 - sampling),
        "speed_samples": len(sampler.samples),
        "peak_rss_mb": peak_rss_mb,
        "op_s": {key: dt for key, dt, _ok in ops},
        "failed": sum(1 for _key, _dt, ok in ops if not ok),
        "memo": {k: [a - b for a, b in zip(after[k], before[k])] for k in after},
        "memo_entries": {k: v[2] for k, v in after.items()},
    }
    if workload == "verify_catalog":
        out["entries"] = {key: [dt, r.instances] for key, dt, r in timed}
    if tracer is not None:
        out["spans"] = tracer.by_name()
    return out


def main(argv):
    mode, workload = argv[1], argv[2]
    seed, rnd, t_spawn = int(argv[3]), int(argv[4]), float(argv[5])
    src = os.path.realpath(os.environ["SYMOP_BENCH_SRC"])
    if not os.path.realpath(symop.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported symop from {symop.__file__}, not from {src}")
    out = {"setup_s": T_IMPORTED - t_spawn}
    if mode != "setup":
        out.update(pass_result(workload, seed, rnd, mode == "traced"))
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main(sys.argv)
