"""Alternating before/after pairs of the benchmark, with medians and quartiles.

Runs `perfbench/run.py --seed 1 --trace 0` (its default seed and run
length) in N pairs on two checkouts: a clean export of a git revision (the base,
`git archive` into a fresh directory under /tmp, so the repository's
.git gains nothing), and the working tree (the change). The order within
a pair alternates, base first in even pairs, so a drift of the host's
speed falls on both sides. For each workload and end-to-end metric it
prints every pair's values, then each side's median and quartiles, how
many pairs the change wins, whether the change's median sits below
the base's lower quartile, whether every change run beats every base
run (the rule `reading` falls back on when the base's quartile spread
exceeds the bound), and the benchmark's reading of the metric against
its bound in BENCHMARK.json (see `reading`). It then prints each op's
median time on both sides, the median over the runs of the `op_median_s`
in each run's `.perfbench_out/result-*.json`, to show where a change
of `pass_s`, their sum, comes from.

Run from the root of the working tree:

    python3 scripts/perf_pairs.py --rev HEAD --pairs 10 --workload formation

With --passes N every run times N passes: the script reads each
workload's nominal pass time PASS_S from the checkout's
`perfbench/run.py` and passes the `--seconds` for which that file's own
count, int(seconds // PASS_S), is N.

Each benchmark run writes its own `.perfbench_out/` in its checkout;
this script writes its table as JSON to `.perfbench_out/pairs-<rev>.json`
in the working tree, and removes the export when it ends.
"""
import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("formation", "ring256", "cm")
SEED = 1  # run.py's default


def export(rev, into):
    """The tree of rev, written into the empty directory into."""
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def pass_seconds(checkout):
    """PASS_S of checkout's perfbench/run.py, read without importing it."""
    with open(os.path.join(checkout, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PASS_S"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    sys.exit(f"no PASS_S in {checkout}/perfbench/run.py")


def seconds_for(checkout, workload, passes):
    """The --seconds giving passes passes, by run.py's count int(seconds // PASS_S):
    half a pass above passes * PASS_S, checked, as rounding could lose one."""
    per_pass = pass_seconds(checkout)[workload]
    seconds = (passes + 0.5) * per_pass
    assert int(seconds // per_pass) == passes, (workload, seconds, per_pass)
    return seconds


def bench(checkout, workload, passes=None):
    """The last line of one run, {"correct", "attempted", "failed", "metrics"},
    with the "op_median_s" of the result file it writes.

    Without bytecode writes, as the benchmark's own runs are made, so each
    run compiles its checkout's sources. With passes, the run times that
    many passes (see seconds_for); otherwise run.py's default length."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    extra = [] if passes is None else ["--seconds", repr(seconds_for(checkout, workload, passes))]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--trace", "0", *extra],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.exit(f"perfbench failed in {checkout}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(checkout, ".perfbench_out", f"result-{workload}-seed{SEED}-trace0.json")
    with open(path) as fh:
        result["op_median_s"] = json.load(fh)["op_median_s"]
    return result


def summary(values):
    """(median, lower quartile, upper quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end():
    """(name, bound, lower is better) of each end-to-end metric in BENCHMARK.json."""
    with open("BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    return [(m["name"], float(m["bound"]), m["better"] == "lower") for m in metrics]


def reading(base, change, bound, lower):
    """How the benchmark reads one metric's pairs: better, no worse, unresolved or worse.

    bound is relative to the base's median. unresolved: the base's
    quartile spread exceeds bound, unless every change run beats every
    base run; worse: the change's median is worse by more than bound;
    better: the change wins at least 9 in 10 pairs and its median beats
    the base's by more than the base's quartile spread.
    """
    sign = 1.0 if lower else -1.0  # so that lower is better below
    base, change = [sign * v for v in base], [sign * v for v in change]
    (bm, bq1, bq3), (cm, _, _) = summary(base), summary(change)
    if bq3 - bq1 > bound * abs(bm) and not max(change) < min(base):
        return "unresolved"
    if cm - bm > bound * abs(bm):
        return "worse"
    wins = sum(c < b for b, c in zip(base, change))
    if wins >= 0.9 * len(base) and bm - cm > bq3 - bq1:
        return "better"
    return "no worse"


def report(workload, runs):
    """Print one workload's table from runs = [(base result, change result)]."""
    print(f"\n== {workload}: {len(runs)} pairs "
          f"(failed ops base {sum(b['failed'] for b, _ in runs)}, "
          f"change {sum(c['failed'] for _, c in runs)}; "
          f"all correct: {all(b['correct'] and c['correct'] for b, c in runs)})")
    table = {}
    for metric, bound, lower in end_to_end():
        base = [b["metrics"][metric]["value"] for b, _ in runs]
        change = [c["metrics"][metric]["value"] for _, c in runs]
        print(f"{metric:<12} {'pair':>4} {'base':>12} {'change':>12} {'change/base':>12}")
        for i, (b, c) in enumerate(zip(base, change)):
            print(f"{'':<12} {i:>4} {b:>12.6f} {c:>12.6f} {c / b:>12.3f}")
        (bm, bq1, bq3), (cm, cq1, cq3) = summary(base), summary(change)
        wins = sum((c < b) == lower for b, c in zip(base, change) if c != b)
        print(f"{'':<12} base   median {bm:.6f}  quartiles [{bq1:.6f}, {bq3:.6f}]")
        print(f"{'':<12} change median {cm:.6f}  quartiles [{cq1:.6f}, {cq3:.6f}]")
        sweep = max(change) < min(base) if lower else min(change) > max(base)
        print(f"{'':<12} change better in {wins} of {len(runs)} pairs; median "
              f"{cm / bm - 1.0:+.1%}; below the base's lower quartile: {cm < bq1}")
        print(f"{'':<12} every change run better than every base run: {sweep}")
        verdict = reading(base, change, bound, lower)
        print(f"{'':<12} reading: {verdict} (bound {bound:.0%}; base quartile spread "
              f"{(bq3 - bq1) / bm:.1%} of its median)")
        table[metric] = {"base": base, "change": change, "base_median": bm,
                         "base_quartiles": [bq1, bq3], "change_median": cm,
                         "change_quartiles": [cq1, cq3], "change_better": wins,
                         "every_run_better": sweep, "reading": verdict}
    print(f"{'op (median of op_median_s)':<32} {'base':>12} {'change':>12} {'change/base':>12}")
    ops = {}
    for op in runs[0][0]["op_median_s"]:
        if not all(op in r[side]["op_median_s"] for r in runs for side in (0, 1)):
            continue  # an op that failed in every pass of some run has no median there
        b, c = (statistics.median(r[side]["op_median_s"][op] for r in runs) for side in (0, 1))
        print(f"{op:<32} {b:>12.6f} {c:>12.6f} {c / b:>12.3f}")
        ops[op] = {"base_median": b, "change_median": c}
    table["op_median_s"] = ops
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rev", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="formation", choices=WORKLOADS + ("all",))
    ap.add_argument("--passes", type=int, default=None,
                    help="timed passes per run (default: run.py's default length)")
    args = ap.parse_args()
    if args.passes is not None and args.passes < 1:
        sys.exit("--passes must be at least 1")
    if not os.path.isfile("perfbench/run.py"):
        sys.exit("run from the root of the working tree")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    base_dir = tempfile.mkdtemp(prefix="perf-pairs-base-", dir="/tmp")
    try:
        export(args.rev, base_dir)
        tables = {}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                order = (base_dir, ".") if i % 2 == 0 else (".", base_dir)
                res = {tree: bench(tree, workload, args.passes) for tree in order}
                runs.append((res[base_dir], res["."]))
                print(f"{workload} pair {i}: base pass_s "
                      f"{runs[-1][0]['metrics']['pass_s']['value']:.4f}, change "
                      f"{runs[-1][1]['metrics']['pass_s']['value']:.4f}", file=sys.stderr)
            tables[workload] = report(workload, runs)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    os.makedirs(".perfbench_out", exist_ok=True)
    out = os.path.join(".perfbench_out", f"pairs-{args.rev.replace('/', '_')}.json")
    with open(out, "w") as fh:
        json.dump({"rev": args.rev, "pairs": args.pairs, "passes": args.passes,
                   "workloads": tables}, fh, indent=1)
    print(f"\nwritten: {out}")


if __name__ == "__main__":
    main()
