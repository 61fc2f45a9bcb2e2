"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/report.py --seeds 1 2 3 4 5

Each (workload, seed) is one fresh ``run.py`` process, run one after
another.  For every workload the summary gives each metric by name and
unit with the median and the spread of its runs, the spread being the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median; then fail_frac over all runs, and how many
distinct exact-count records and sweep report digests the runs produced
per seed.  Each run's last line is kept in ``--out`` as JSON lines when
asked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "chain", "query", "words")


def run_once(workload, seed, seconds, trace, smoke):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    facts = next(json.loads(x[len("facts ") :]) for x in lines if x.startswith("facts "))
    return facts, json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(workload, runs):
    print(f"== {workload}: {len(runs)} runs")
    values, units = defaultdict(list), {}
    for _, result in runs:
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            units[name] = metric["unit"]
    for name, vs in values.items():
        median = statistics.median(vs)
        print(f"  {name:40s} {units[name]:6s} median {median:14.6g}  spread {spread(vs):7.4f}")
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    print(f"  {'fail_frac':40s} {'':6s} {failed / attempted:21.6g}  ({failed}/{attempted})")
    print(f"  correct in {sum(r['correct'] for _, r in runs)} of {len(runs)} runs")
    by_seed = defaultdict(set)
    for facts, _ in runs:
        by_seed[facts["seed"]].add(json.dumps(facts["exact"], sort_keys=True))
    worst = max(len(s) for s in by_seed.values())
    everywhere = len(set().union(*by_seed.values()))
    print(f"  exact records: at most {worst} per seed, {everywhere} over all seeds")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="append each run's facts and result here")
    args = parser.parse_args(argv)
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            facts, result = run_once(workload, seed, args.seconds, args.trace, args.smoke)
            runs.append((facts, result))
            if args.out:
                with args.out.open("a") as out:
                    out.write(json.dumps({"facts": facts, "result": result}) + "\n")
        summarise(workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
