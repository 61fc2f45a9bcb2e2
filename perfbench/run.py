"""Benchmark of the unshuffle package: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and nowhere else.  The process set-up (import, inputs
from the seed, any state the timed phase assumes) is timed, then batches
run closed-loop until about ``--seconds`` have passed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` batches alternate
untraced and traced, and the metrics are the per-layer ones plus the
tracing overhead.  Lines before it give the metrics by name and unit, the
machine facts and the exact work counts.  ``--smoke`` shrinks every input
so that a run takes a few seconds.

Exact counts and the sweep report digest are also kept in
``perfbench/.state/``, by workload and seed, for the source they came
from; a later run of the same source that disagrees is not correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups per run, each in a fresh process: at least 3, and up to 10 while
# the extra ones take under PROBE_SECONDS.  setup_s is their median.
SETUP_SAMPLES = 3, 10
PROBE_SECONDS = 2
MIN_BATCHES = 2  # a sweep batch takes 13 to 15 s, so a third would not fit the run budget
STATE = HERE / ".state"
EXACT = (
    "bsgs.chain.levels",
    "bsgs.chain.strong_gens",
    "bsgs.chain.orbit_points",
    "bsgs.bfs_enumerate.elements",
    "shuffles.word_permutation.points",
)
# The per-layer metrics of BENCHMARK.json: span totals of an entry point
# (".calls", ".s", ".self_s"), exact counts, and two ratios.
PER_LAYER = (
    "bsgs.StabilizerChain.calls",
    "bsgs.StabilizerChain.s",
    "bsgs.chain.levels",
    "bsgs.chain.strong_gens",
    "bsgs.chain.orbit_points",
    "bsgs.bfs_enumerate.calls",
    "bsgs.bfs_enumerate.s",
    "bsgs.bfs_enumerate.elements",
    "bsgs.contains.calls",
    "bsgs.contains.s",
    "bsgs.contains.member_ratio",
    "groups.verify_deck_size.calls",
    "groups.verify_deck_size.s",
    "groups.verify_deck_size.self_s",
    "groups.pair_kernel_order.calls",
    "groups.pair_kernel_order.s",
    "groups.pair_kernel_order.self_s",
    "groups.predict_group.s",
    "groups.computed_parity_row.s",
    "shuffles.word_permutation.calls",
    "shuffles.word_permutation.s",
    "shuffles.word_permutation.points",
    "shuffles.shuffle_permutation.calls",
    "shuffles.shuffle_permutation.s",
    "shuffles.shuffle_order.calls",
    "shuffles.shuffle_order.s",
    "perm.mul.s",
    "perm.inverse.s",
    "perm.order.s",
    "perm.parity.s",
    "perm.cycles.s",
    "elmsley.perfect_elmsley_word.s",
    "elmsley.unshuffle_swap_word.s",
    "cli.main.self_s",
    "trace.overhead_frac",
)


def import_package():
    """The package from this checkout's src/; without it, exit 1 and print no result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import unshuffle
        import unshuffle.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import unshuffle from {src}: {exc}")
    if not Path(unshuffle.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: imported unshuffle from {unshuffle.__file__}, not from {src}")
    return unshuffle


def set_up(name, seed, smoke, trace):
    """Import the package and build the workload, tracing its calls if asked.

    Returns the package, the workload, the tracer or None, and the seconds
    the set-up took."""
    start = perf_counter()
    pkg = import_package()
    if trace:
        tracer = tracing.Tracer(pkg)
        with tracer.bound() as api:
            workload = WORKLOADS[name](pkg, api, seed, smoke)
    else:
        tracer = None
        workload = WORKLOADS[name](pkg, tracing.api(pkg), seed, smoke)
    return pkg, workload, tracer, perf_counter() - start


def probe_set_ups(args):
    """Set-up seconds of fresh processes, one process after another."""
    least, most = SETUP_SAMPLES
    seconds = []
    begin = perf_counter()
    while len(seconds) < least - 1 or (
        len(seconds) < most - 1 and perf_counter() - begin < PROBE_SECONDS
    ):
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
        argv += ["--probe"] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode:
            sys.exit(done.stderr.strip() or f"error: set-up probe exited {done.returncode}")
        seconds.append(float(done.stdout.split()[-1]))
    return seconds


def measure(name, seed, seconds, trace, smoke):
    """Set up in this process and run batches; returns the run's raw results.

    Untraced, every batch runs untraced.  Traced, batches alternate
    untraced and traced, starting untraced."""
    pkg, workload, tracer, setup_s = set_up(name, seed, smoke, trace)
    plain = tracing.api(pkg)
    setup_layers = tracer.take() if trace else None
    batches = []
    started = perf_counter()
    try:
        while True:
            traced = trace and len(batches) % 2 == 1
            # as timeit does: collect between batches, not inside one, so a
            # collector pause does not land on whichever operation the
            # seed's allocation count happens to pick
            gc.collect()
            gc.disable()
            begin = perf_counter()
            try:
                if traced:
                    with tracer.bound() as api:
                        latencies, wrong, rest = workload.batch(api)
                else:
                    latencies, wrong, rest = workload.batch(plain)
            finally:
                wall = perf_counter() - begin
                gc.enable()
            layers = tracer.take() if traced else None
            batches.append(
                {"wall": wall, "latencies": latencies, "rest": rest, "wrong": wrong, "layers": layers}
            )
            estimate = statistics.median(b["wall"] for b in batches)
            # stop at the batch count that brings the timed phase nearest to
            # `seconds`, but not before MIN_BATCHES
            if len(batches) >= MIN_BATCHES and perf_counter() - started + estimate / 2 >= seconds:
                break
    finally:
        workload.close()
    return {
        "setup_s": setup_s,
        "setup_layers": setup_layers,
        "batches": batches,
        "report": getattr(workload, "report", None),
    }


def _betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0 or x >= 1:
        return min(max(x, 0.0), 1.0)
    if x > (a + 1) / (a + b + 2):
        return 1 - _betainc(b, a, 1 - x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = math.exp(log_front + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1 / (1 + term * d or 1e-300)
        c = 1 + term / c or 1e-300
        f *= c * d
        if abs(c * d - 1) < 1e-13:
            break
    return front * (f - 1)


def harrell_davis(values, q):
    """The Harrell-Davis estimate of the q-quantile: a beta-weighted mean of
    all order statistics, so that it moves smoothly when two neighbouring
    values swap places, where a plain percentile of a few values jumps."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, cdf, cdf[1:]))


def op_latencies(run):
    """Each operation's latency: its mean over the run's batches."""
    return [statistics.fmean(s) for s in zip(*(b["latencies"] for b in run["batches"]))]


def end_to_end(run, setups):
    """Every batch runs the same operations, so each operation has one
    latency per batch, and the metrics use each operation's mean of them.
    On a shared machine (measured on a 2-vCPU VM) speed switches between
    a usual pace and a third slower or faster, in spells of seconds to
    minutes.  A minimum depends on whether the run met a fast spell; a
    mean weighs the spells by the time the run spent in them.  Over two
    ten-seed sets, the minimum batch time spread 0.10 to 0.27 of its
    median between runs, the mean batch time 0.07 to 0.15.

    wall_s is a batch's mean time in the package: the sum of the
    operations' latencies plus the mean time a batch spent in the
    package between them (a batch's own wall time would include the
    oracle checks).  ops_per_s is the operations of a batch over wall_s,
    which is the operations completed per second in the package.
    op_p90_ms is the Harrell-Davis 0.9-quantile of the operations'
    latencies.  setup_s is the median of the run's set-ups.  There is no
    op_p50_ms: the middle of these mixed operation lists is sparse, and
    its ten-seed spread reached 0.29 of the median."""
    typical = op_latencies(run)
    wall = sum(typical) + statistics.fmean(b["rest"] for b in run["batches"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(typical) / wall, "1/s"),
        "op_p90_ms": (harrell_davis(typical, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run):
    """Set-up spans plus the median of the traced batches, per metric."""
    setup = run["setup_layers"]
    traced = [b for b in run["batches"] if b["layers"] is not None]
    untraced = [b for b in run["batches"] if b["layers"] is None]

    def value(kind, key):
        return setup[kind][key] + statistics.median(b["layers"][kind][key] for b in traced)

    calls = value("calls", "bsgs.contains")
    overhead = statistics.median(b["wall"] for b in traced) / statistics.median(
        b["wall"] for b in untraced
    )
    metrics = {}
    for name in PER_LAYER:
        entry, _, kind = name.rpartition(".")
        if name in EXACT:
            metrics[name] = (value("counts", name), "count")
        elif kind == "calls":
            metrics[name] = (value("calls", entry), "count")
        elif kind in ("s", "self_s"):
            metrics[name] = (value(kind, entry), "s")
    members = value("counts", "bsgs.contains.members")
    metrics["bsgs.contains.member_ratio"] = (members / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead - 1, "ratio")
    return {name: metrics[name] for name in PER_LAYER}


def exact_counts(run):
    """The exact counts of the first traced batch, and whether every traced
    batch agrees with it."""
    seen = [
        {k: run["setup_layers"]["counts"][k] + b["layers"]["counts"][k] for k in EXACT}
        for b in run["batches"]
        if b["layers"] is not None
    ]
    return (seen[0] if seen else {}), all(s == seen[0] for s in seen)


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unshuffle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def agrees_with_earlier_runs(key, source, record):
    """Compare with what earlier runs of the same source kept; keep what is new."""
    path = STATE / (key + ".json")
    kept = json.loads(path.read_text()) if path.exists() else {}
    if kept.get("source") != source:
        kept = {"source": source}
    agrees = all(kept.get(k, v) == v for k, v in record.items())
    if agrees:
        kept.update(record)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n")
    return agrees


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, a few seconds")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        _, workload, _, seconds = set_up(args.workload, args.seed, args.smoke, trace=False)
        workload.close()
        print(repr(seconds))
        return 0

    probes = [] if args.trace else probe_set_ups(args)
    run = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    attempted = sum(max(len(b["latencies"]), b["wrong"]) for b in run["batches"])
    failed = sum(b["wrong"] for b in run["batches"])
    metrics = per_layer(run) if args.trace else end_to_end(run, probes + [run["setup_s"]])

    source = source_digest()
    counts, repeated = exact_counts(run)
    record = dict(counts)
    if run["report"] is not None:
        record["report_sha256"] = hashlib.sha256(run["report"]).hexdigest()
    key = f"{args.workload}-{args.seed}" + ("-smoke" if args.smoke else "")
    consistent = repeated and agrees_with_earlier_runs(key, source, record)
    if not consistent:
        print("FLAG: exact counts or report bytes differ from an earlier batch or run")

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source,
        "batch_walls": [round(b["wall"], 4) for b in run["batches"]],
        "samples": sum(len(b["latencies"]) for b in run["batches"]),
        "exact": record,
    }
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / attempted:14.6g} ({failed}/{attempted})")
    if not args.trace:
        ops = len(run["batches"][0]["latencies"])
        print(f"op_p90_ms: mean latencies of {ops} operations over "
              f"{len(run['batches'])} batches, {ops // 10} operations beyond p90")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
