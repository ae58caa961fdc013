"""symop benchmark: the command that runs one workload and prints its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass is a fresh interpreter
(`child.py`), because every `symop` invocation starts with cold memo
tables; passes run one after another from this single process.  The run
makes at least three timed passes, each after a few import-only spawns,
and more while the next one is predicted to end within S seconds.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
(see layertrace.py).  Every end-to-end time but `setup_s` is scaled to a
fixed reference speed of the machine (see speed.py); the note lines give
the times as measured too.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the lines before it
are human-readable notes on the environment and sample counts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from expected import PINNED_INSTANCES
from layertrace import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("verify_catalog", "skew_lr", "basis_rank")
# import-only spawns before each pass
SETUP_SPAWNS = 5
# A slow phase of a shared machine can stretch one pass by half.  The
# median of three passes is immune to one such pass, so a run makes three
# even when that takes longer than --seconds.
MIN_PLAIN_PASSES = 3
RUN_LIMIT_S = 170
TAIL_LADDER = (50, 60, 67, 75, 80, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.99)
# layer self times must cover this share of the traced wall time
COVERAGE_FLOOR = 0.9


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    return max(p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10)


def percentile(values, p):
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_sha(root):
    """HEAD of the checkout, or `unknown` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, root, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        # a stray value silently changes the program measured
        self.env.pop("SYMOP_THREADS", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["SYMOP_BENCH_SRC"] = os.path.join(root, "src", "symop")

    def _run(self, cmd):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run time limit reached")
        proc = subprocess.run(
            cmd, env=self.env, capture_output=True, text=True, timeout=remaining
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr}"
            )
        return proc.stdout

    def spawn(self, mode, rnd=0):
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = self._run([sys.executable, os.path.join(HERE, "child.py"), mode,
                         self.workload, str(self.seed), str(rnd), repr(t_spawn)])
        return json.loads(out)


def measure(runner, seconds, modes, min_rounds, setup_spawns=0):
    """Run `min_rounds` rounds of the pass modes, then more while the next
    round is predicted to finish within `seconds`.  Each round starts with
    `setup_spawns` import-only spawns, so that the set-up samples spread
    over the whole run.  Returns (setup samples, passes by mode)."""
    setup = []
    passes = {m: [] for m in modes}
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        setup += [runner.spawn("setup")["setup_s"] for _ in range(setup_spawns)]
        for m in modes:
            res = runner.spawn(m, len(rounds))
            setup.append(res["setup_s"])
            passes[m].append(res)
        rounds.append(time.monotonic() - t0)
        if (len(rounds) >= min_rounds
                and time.monotonic() - start + statistics.median(rounds) > seconds):
            return setup, passes


def end_to_end(setup, passes):
    # An op's latency is its median over the run's passes.  Each pass runs
    # the ops in another order, and the order decides which op pays for
    # filling a memo table; the median keeps the typical cost.
    per_op = [statistics.median(p["op_s"][key] for p in passes)
              for key in passes[0]["op_s"]]
    tail = tail_percentile(len(per_op))
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_per_s": (
            statistics.median(len(p["op_s"]) / p["wall_s"] for p in passes), "1/s"
        ),
        "op_p50_ms": (percentile(per_op, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(per_op, tail) * 1e3, "ms"),
    }
    notes = [
        f"passes={len(passes)} ops={len(per_op)} setup_samples={len(setup)}",
        "wall_s per pass: " + " ".join(f"{p['wall_s']:.3f}" for p in passes),
        "as measured, wall_s per pass: "
        + " ".join(f"{p['wall_raw_s']:.3f}" for p in passes),
        "speed samples per pass: "
        + " ".join(str(p["speed_samples"]) for p in passes),
        f"op_tail_ms is p{tail} over {len(per_op)} ops, each the median of "
        f"{len(passes)} passes",
    ]
    return metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(p):
    """Per-layer metrics of one traced pass."""
    spans = p["spans"]
    memo = p["memo"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0))[0]

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0))[1] for n in names)

    def items(name):
        return spans.get(name, (0, 0.0, 0))[2]

    def memo_calls(name):
        hits, misses, _ = memo.get(name, (0, 0, 0))
        return hits + misses

    def tables(layer):
        names = [k for k in memo if k.startswith(layer + ".") and k != "coeffs._LR_CACHE"]
        hits = sum(memo[k][0] for k in names)
        total = sum(memo[k][0] + memo[k][1] for k in names)
        return _ratio(hits, total), sum(p["memo_entries"][k] for k in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*(n for n in spans if n.startswith(layer + ".")))
        if layer in ("partitions", "coeffs", "symfunc"):
            ratio, entries = tables(layer)
            m[f"{layer}.tables.hit_ratio"] = ratio
            m[f"{layer}.tables.entries"] = entries
    layer_total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    mn_hits, _mn_misses, _ = memo.get("coeffs.mn_character", (0, 0, 0))
    lr_calls = calls("coeffs.lr_coeff")
    m.update({
        "symfunc.construct.calls": calls("symfunc.construct"),
        "symfunc.construct.terms": items("symfunc.construct"),
        "symfunc.construct.self_s": self_s("symfunc.construct"),
        "symfunc.add.calls": calls("symfunc.add"),
        "symfunc.mul.self_s": self_s("symfunc.mul"),
        "symfunc.kronecker.self_s": self_s("symfunc.kronecker"),
        "symfunc.skew.self_s": self_s("symfunc.skew"),
        "symfunc.to_basis.self_s": self_s("symfunc.to_basis"),
        "partitions.make_partition.calls": calls("partitions.make_partition"),
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply.self_s": self_s("operators.apply"),
        "operators.apply_KB.self_s": self_s("operators.apply_KB"),
        "operators.matrix_of.self_s": self_s("operators.matrix_of"),
        "operators.rank.self_s": self_s("operators.rank"),
        "tableaux.fill.yields": items("tableaux.fill"),
        "tableaux.fill.self_s": self_s("tableaux.fill"),
        "tableaux.skew_lr.self_s": self_s(
            "tableaux.skew_lr_product", "tableaux.skew_lr_terms",
            "tableaux.skew_lr_pairs"),
        "tableaux.jdt.self_s": self_s(
            *(n for n in spans if n.startswith("tableaux.") and "jdt" in n)),
        "coeffs.mn_character.calls": memo_calls("coeffs.mn_character"),
        "coeffs.mn_character.hit_ratio": _ratio(
            mn_hits, memo_calls("coeffs.mn_character")),
        "coeffs.lr_coeff.calls": lr_calls,
        "coeffs.lr_coeff.hit_ratio": _ratio(
            lr_calls - memo["coeffs._LR_CACHE"][2], lr_calls),
        "coeffs.lr_cache.entries": p["memo_entries"]["coeffs._LR_CACHE"],
        "coeffs.kron_coeff.calls": memo_calls("coeffs.kron_coeff"),
        "trace.wall_s": p["wall_s"],
        # self times are measured, not scaled
        "trace.coverage_frac": _ratio(layer_total, p["wall_raw_s"]),
        "bench.self_s": p["wall_raw_s"] - layer_total,
    })
    return m


PER_LAYER_UNITS = {"calls": "count", "terms": "count", "yields": "count",
                   "entries": "count", "instances": "count",
                   "hit_ratio": "ratio", "coverage_frac": "ratio",
                   "overhead_frac": "ratio"}


def per_layer(plain, traced):
    samples = [layer_metrics(p) for p in traced]
    metrics = {}
    for name in samples[0]:
        unit = PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")
        metrics[name] = (statistics.median(s[name] for s in samples), unit)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"][0] / plain_wall - 1, "ratio")
    for ident in sorted(PINNED_INSTANCES):
        metrics[f"identities.{ident}.s"] = (statistics.median(
            p.get("entries", {}).get(ident, (0.0, 0))[0] for p in plain), "s")
    metrics["identities.instances"] = (statistics.median(
        sum(v[1] for v in p.get("entries", {}).values()) for p in plain), "count")
    notes = [
        f"plain_passes={len(plain)} traced_passes={len(traced)}",
        f"untraced wall_s={plain_wall:.4f} traced wall_s={metrics['trace.wall_s'][0]:.4f}",
        f"layer self times cover {metrics['trace.coverage_frac'][0]:.1%} of traced "
        f"wall time (at least {COVERAGE_FLOOR:.0%} required)",
    ]
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "symop", "__init__.py")):
        print("benchmark: no src/symop/ here; run from the root of a symop "
              "checkout", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            _setup, passes = measure(runner, args.seconds, ("plain", "traced"), 1)
            metrics, notes = per_layer(passes["plain"], passes["traced"])
            all_passes = passes["plain"] + passes["traced"]
        else:
            setup, passes = measure(
                runner, args.seconds, ("plain",), MIN_PLAIN_PASSES, SETUP_SPAWNS)
            metrics, notes = end_to_end(setup, passes["plain"])
            all_passes = passes["plain"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["op_s"]) for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    # a trace that leaves much of the wall time to no layer explains nothing
    correct = failed == 0 and (
        not args.trace or metrics["trace.coverage_frac"][0] >= COVERAGE_FLOOR)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"sha={git_sha(root)} PYTHONHASHSEED=0 SYMOP_THREADS=unset")
    for note in notes:
        print("# " + note)
    print(f"# error_rate={_ratio(failed, attempted)} ({failed}/{attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
