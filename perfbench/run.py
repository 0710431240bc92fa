"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0

Run from the repository root: the program is imported from ``src/``.  The
workload runs as a closed loop with one caller in this process: the next op
starts when the previous one returns.  The loop stops at the first whole
round of the deck after ``--seconds``.

--trace 0 reports the end-to-end metrics.  ``setup_s`` is the median of three
set-ups: this process's own (from process start to the first timed op:
imports, input generation and writes, one untimed warm-up op per op kind) and
two more in fresh child processes, run one at a time after the timed loop.

--trace 1 runs the deck untraced for half of ``--seconds``, then the same ops
again with every layer function wrapped, and reports per-layer metrics per op
and ``trace_overhead`` (traced over untraced median op latency, minus one).

--out FILE appends the full record (environment, failure causes, tail
percentile) as one JSON line; ``perfbench/sweep.py`` and
``perfbench/compare.py`` read those files.  With --trace 1 the spans go to
FILE.<workload>-<seed>.spans.csv when the run ends.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from tracer import Span, Tracer, layer_metrics  # noqa: E402

# One BLAS thread: with one caller per process this keeps the process within
# nproc threads and the small dense kernels free of thread hand-off noise.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = ".perfbench"
SETUP_SAMPLES = 3
# The caller moves to the next CPU it may use at each round.  On a shared host
# each vCPU's speed drifts by itself over tens of seconds, so a run that stays
# on one vCPU measures that vCPU's neighbours.  In ten interleaved pairs of
# 25 s cli-mix runs on 2 vCPUs, alternating cut the quartile spread of
# ops_per_s from 0.17 to 0.10 of the median, and of op_p50_s from 0.16 to 0.08.
CPUS = sorted(os.sched_getaffinity(0))
NUMBER = re.compile(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append the full record to this JSONL file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def first_line(text: str) -> str:
    text = str(text).strip()
    return text.splitlines()[0] if text else "(no message)"


def cause_key(message: str) -> str:
    """A failure cause with the numbers in its message masked, so like failures group."""
    head, sep, text = message.partition(": ")
    return head + sep + NUMBER.sub("#", text)


def attempt(workloads, op):
    """Run and check one op: (latency, failure cause or None, wrong answer?)."""
    start = time.perf_counter()
    try:
        code, output, err = workloads.run_op(op)
    except Exception as e:  # every error an op raises is a counted failure
        return time.perf_counter() - start, f"raised {type(e).__name__}: {first_line(e)}", False
    latency = time.perf_counter() - start
    if code != 0:
        return latency, f"exit {code}: {workloads.error_line(output, err)}", False
    try:
        miss = workloads.check(op, output)
    except Exception as e:  # output the oracle cannot read is a wrong answer
        miss = f"unreadable output ({type(e).__name__}: {first_line(e)})", True
    if miss is not None:
        return latency, f"oracle: {first_line(miss[0])}", miss[1]
    return latency, None, False


def closed_loop(workloads, deck, round_len, seconds=None, count=None, tracer=None):
    """Run deck ops in order (cycling) until `seconds` pass at a round end, or `count` ops.

    Each round runs on the next CPU of the process's affinity set, which is
    restored at the end.
    """
    lat, causes, examples, wrong, ok = [], Counter(), {}, 0, 0
    round_rates = []
    start = round_start = time.perf_counter()
    round_ok = 0
    i = 0
    while True:
        if i % round_len == 0 and i:
            now = time.perf_counter()
            round_rates.append(round_ok / (now - round_start))
            round_start, round_ok = now, 0
        if count is not None and i >= count:
            break
        if count is None and i % round_len == 0 and time.perf_counter() - start >= seconds:
            break
        if i % round_len == 0:
            os.sched_setaffinity(0, {CPUS[(i // round_len) % len(CPUS)]})
        if tracer is not None:
            tracer.op = i
        latency, cause, is_wrong = attempt(workloads, deck[i % len(deck)])
        lat.append(latency)
        if cause is None:
            ok += 1
            round_ok += 1
        else:
            key = cause_key(cause)
            causes[key] += 1
            examples.setdefault(key, cause)
            wrong += is_wrong
        i += 1
    wall_s = time.perf_counter() - start
    os.sched_setaffinity(0, CPUS)
    return {"wall_s": wall_s, "latencies": lat, "ok": ok,
            "round_rates": round_rates,
            "causes": causes, "examples": examples, "wrong": wrong}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def setup(workloads, name, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    warm, deck = workloads.build_deck(name, seed, workdir)
    for op in warm:
        attempt(workloads, op)
    return deck


def child_setup_s(args) -> float:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    head = os.path.join(".git", "HEAD")
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: ") and os.path.exists(os.path.join(".git", ref[5:])):
            with open(os.path.join(".git", ref[5:])) as f:
                commit = f.read().strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(BLAS_THREADS), "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit, "seed": args.seed}


def load_units() -> dict[str, str]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join("src", "torsionkit")):
        print("perfbench: run from the repository root (src/torsionkit not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    try:
        deck = setup(workloads, args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        round_len = workloads.round_length(args.workload)
        if args.trace:
            record = traced_run(workloads, deck, round_len, args)
        else:
            record = untraced_run(workloads, deck, round_len, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  environment=environment(args))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in ("causes", "tail", "environment")
                      if k in record}, sort_keys=True))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def summary(loop) -> dict:
    n = len(loop["latencies"])
    return {"correct": loop["wrong"] == 0, "attempted": n, "failed": n - loop["ok"],
            "causes": dict(loop["causes"]), "cause_examples": loop["examples"]}


def untraced_run(workloads, deck, round_len, args, setup_s) -> dict:
    loop = closed_loop(workloads, deck, round_len, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    lat = loop["latencies"]
    tail_s, pct = tail(lat)
    record = summary(loop)
    record["tail"] = {"percentile": pct, "samples": len(lat)}
    record["setup_samples_s"] = setups
    record["latencies_s"] = lat
    record["round_rates"] = loop["round_rates"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(loop["round_rates"]),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "ok_share": loop["ok"] / len(lat),
        "peak_rss_mb": peak_rss_mb,
    }
    units = load_units()
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return record


def traced_run(workloads, deck, round_len, args) -> dict:
    plain = closed_loop(workloads, deck, round_len, seconds=args.seconds / 2)
    n = len(plain["latencies"])
    with Tracer() as tracer:
        traced = closed_loop(workloads, deck, round_len, count=n, tracer=tracer)
    work = Counter()
    for i in range(n):
        work.update(deck[i % len(deck)].work)
    values = layer_metrics(tracer.finished(), n, work)
    values["trace_overhead"] = (statistics.median(traced["latencies"])
                                / statistics.median(plain["latencies"]) - 1.0)
    record = summary(traced)
    units = load_units()
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    if args.out:
        write_spans(tracer.finished(), f"{args.out}.{args.workload}-{args.seed}.spans.csv")
    return record


def write_spans(spans, path) -> None:
    """One CSV row per span: name, start, end, parent index, op, raised."""
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(Span._fields)
        out.writerows(spans)


if __name__ == "__main__":
    sys.exit(main())
