"""Run workloads over several seeds and print every end-to-end metric.

    python3 perfbench/sweep.py --seeds 1-10 --out .perfbench/base
    python3 perfbench/sweep.py --seeds 1-5 --workloads cli-mix --out DIR

Each run is ``perfbench/run.py`` in its own process, one at a time, with the
run length from BENCHMARK.json; the full records go to ``DIR/<workload>.jsonl``.
The table gives, per workload and metric, the median, the quartiles and the
quartile spread as a share of the median, then the failures by cause.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def read_records(directory: str, trace: int = 0) -> dict[str, list[dict]]:
    """Workload -> run records found in directory/*.jsonl."""
    out: dict[str, list[dict]] = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name)) as f:
            for line in f:
                rec = json.loads(line)
                if rec["trace"] == trace:
                    out.setdefault(rec["workload"], []).append(rec)
    return out


def print_table(records: dict[str, list[dict]], metrics: list[dict]) -> None:
    for workload, runs in records.items():
        print(f"\n{workload}: {len(runs)} runs, seeds "
              f"{sorted(r['environment']['seed'] for r in runs)}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            flag = "" if bound is None or spread <= bound / 3 else "  <- spread above bound/3"
            print(f"  {m['name']:<34} {med:12.6g} {m['unit']:<9} "
                  f"[{q1:.6g}, {q3:.6g}]  spread {spread:.3f}{flag}")
        causes = Counter()
        attempted = sum(r["attempted"] for r in runs)
        for r in runs:
            causes.update(r["causes"])
        wrong = sum(not r["correct"] for r in runs)
        print(f"  failures: {sum(causes.values())} of {attempted} ops; "
              f"runs with a wrong answer: {wrong}")
        for cause, n in causes.most_common():
            print(f"    {n:6d}  {cause}")
        if "tail" in runs[0]:
            pcts = sorted(r["tail"]["percentile"] for r in runs)
            print(f"  op_tail_s percentile {pcts[0]:.1f}-{pcts[-1]:.1f} over "
                  f"{min(r['tail']['samples'] for r in runs)}-"
                  f"{max(r['tail']['samples'] for r in runs)} ops per run")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default="all", help="comma-separated names or 'all'")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="directory for the JSONL records")
    args = p.parse_args(argv)
    chosen = names if args.workloads == "all" else args.workloads.split(",")
    os.makedirs(args.out, exist_ok=True)
    for workload in chosen:
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace),
                   "--out", os.path.join(args.out, f"{workload}.jsonl")]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {proc.stdout.strip().splitlines()[-1]}",
                  flush=True)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    print_table(read_records(args.out, args.trace), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
