"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSONL records that ``perfbench/sweep.py`` writes.
Runs pair by workload and seed.  For each workload and end-to-end metric the
table gives each side's median and quartiles, how many pairs the new side
wins (ties count for neither) and a verdict:

* improved      - the new side wins at least nine tenths of the pairs and the
                  medians differ, in the better direction, by more than the
                  base side's quartile spread;
* within bound  - the new median is no worse than the base median by more
                  than the metric's bound from BENCHMARK.json;
* regressed     - it is worse by more than the bound;
* unresolved    - the base side's own quartile spread is wider than the
                  bound, unless every new run reads better than every base run.
"""

from __future__ import annotations

import sys

from sweep import load_spec, quartiles, read_records


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    gain = sign * (nmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        return "improved", wins
    if bq3 - bq1 > bound * abs(bmed):
        all_better = min(new) > max(base) if better == "higher" else max(new) < min(base)
        return ("within bound" if all_better else "unresolved"), wins
    return ("within bound" if -gain <= bound * abs(bmed) else "regressed"), wins


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, new = read_records(argv[0]), read_records(argv[1])
    worst = "within bound"
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"\n{name}: missing from {'base' if name not in base else 'new'} runs")
            continue
        by_seed = {r["environment"]["seed"]: r for r in base[name]}
        print(f"\n{name}: {len(base[name])} base runs, {len(new[name])} new runs")
        print(f"  {'metric':<12} {'base median [q1, q3]':<36} {'new median [q1, q3]':<36} "
              f"{'wins':>7}  verdict")
        for m in spec["end_to_end"]:
            key = m["name"]
            b = [r["metrics"][key]["value"] for r in base[name]]
            n = [r["metrics"][key]["value"] for r in new[name]]
            pairs = [(by_seed[r["environment"]["seed"]]["metrics"][key]["value"],
                      r["metrics"][key]["value"])
                     for r in new[name] if r["environment"]["seed"] in by_seed]
            result, wins = verdict(b, n, pairs, m["better"], m["bound"])
            if result == "regressed" or (result == "unresolved" and worst != "regressed"):
                worst = result
            cells = []
            for vals in (b, n):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"  {key:<12} {cells[0]:<36} {cells[1]:<36} "
                  f"{wins:>3}/{len(pairs):<3}  {result}")
    print(f"\noverall: {worst}")
    return 0 if worst == "within bound" else 1


if __name__ == "__main__":
    sys.exit(main())
