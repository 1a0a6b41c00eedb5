"""couplednet benchmark: one workload per fresh process, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload formation --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Workloads (see workloads.py): `formation` (the shipped schedule config),
`ring256` (bench_integrate's ring with chords at n = 256) and `cm`
(library check_cm over a seeded relation set). The workload first runs
its cheap ops once untimed (warm-up), then repeats all its ops in a fixed
number of passes: --seconds divided by the workload's nominal pass time
(PASS_S, measured on a 2-vCPU VM), at least one. The count depends on
--seconds alone, so every run of a workload attempts the same operations;
on a slower machine a run takes longer than --seconds. Each op is timed
alone, its output checked untimed, and each op's time is the median over
its successful calls. Known-failure probes run once after the passes.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s       median of SETUPS set-ups, each timed from process start
                (before `import couplednet`) to ready; one is this process,
                the others fresh child processes
  pass_s        sum over the workload's ops of each op's median time
  peak_rss_mb   peak resident memory of this process
With --trace 1 the layers' public entry points are wrapped (tracer.py) and
the last line reports the per-layer metrics, medians over passes.
Either way `attempted`/`failed` count every op and probe; a failed output
check counts as a failure. Results and spans go to .perfbench_out/.
"""
import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREADS = 1  # fixed below nproc for steady timings on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402

WORKLOADS = ("formation", "ring256", "cm")
# Nominal seconds of one timed pass, 2-vCPU VM: formation's simulate is
# 3-5 s; ring256's flow ~11 s and simulate ~5 s; cm's ten relations ~5 s.
# formation's is set low to give it more passes: its inputs do not change
# with the seed, so all its spread is the host's and only more samples help.
PASS_S = {"formation": 3.75, "ring256": 19.0, "cm": 6.0}
SETUPS = 5
OUT_DIR = ".perfbench_out"
REQUIRED = ("src/couplednet/__init__.py", "benchmarks/bench_integrate.py",
            "configs/formation.json")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("config.load_config_s", "s"), ("netgraph.incidence_s", "s"),
    ("netgraph.lifted_mb", "MB"), ("plants.ss_relation_s", "s"),
    ("couplers.controller_ss_relation_s", "s"),
    ("relations.check_cm_affine_s", "s"), ("relations.check_cm_gradient_s", "s"),
    ("relations.cycles_checked", "count"), ("netopt.assemble_s", "s"),
    ("netopt.solve_opp_s", "s"), ("netopt.solve_opp_iters", "count"),
    ("netopt.solve_ofp_s", "s"), ("netopt.solve_ofp_iters", "count"),
    ("netopt.recover_certificate_s", "s"), ("netopt.duality_gap_s", "s"),
    ("netopt.verify_steady_state_s", "s"), ("synthesis.synthesize_linear_s", "s"),
    ("synthesis.check_forcible_s", "s"), ("synthesis.check_uniqueness_s", "s"),
    ("synthesis.leader_input_s", "s"), ("synthesis.reconfiguration_offsets_s", "s"),
    ("simulate.closed_loop_s", "s"), ("simulate.integrate_s", "s"),
    ("simulate.rhs_calls", "count"), ("simulate.rhs_us", "us"),
    ("simulate.export_csv_s", "s"), ("simulate.detect_convergence_s", "s"),
    ("simulate.compare_prediction_s", "s"), ("cli.self_s", "s"),
    ("trace.pass_s", "s"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_checkout():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        log(f"perfbench: run from the root of a couplednet checkout; missing {missing}")
        sys.exit(2)
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("benchmarks")]


def machine_record():
    import numpy
    import scipy
    from couplednet import _fastpath

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "HAS_NUMBA": bool(getattr(_fastpath, "HAS_NUMBA", False)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def setup(name, seed, workdir):
    """Build the workload; returns (workload, seconds since process start)."""
    import workloads

    wl = workloads.SETUP[name](seed, workdir)
    return wl, time.perf_counter() - T_START


def child_setup_times(args, count):
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_op(op, tracer):
    """Run one op; returns its wall time, or None if it raised or failed its check."""
    try:
        if op.prepare is not None:
            op.prepare()
        gc.collect()
        with tracer.span(op.span):
            t0 = time.perf_counter()
            result = op.run()
            elapsed = time.perf_counter() - t0
        op.check(result)
        return elapsed
    except Exception:
        log(f"op {op.name} failed:\n{traceback.format_exc(limit=3)}")
        return None


def warm_up(wl):
    """Each op marked `warm` once, untimed and untraced; returns (attempted, failed)."""
    warm = [op for op in wl.ops if op.warm]
    failed = sum(run_op(op, tracing.NullTracer()) is None for op in warm)
    return len(warm), failed


def measure(wl, passes, tracer):
    """`passes` timed passes over the ops."""
    times = {op.name: [] for op in wl.ops}
    attempted = failed = 0
    for _ in range(passes):
        for op in wl.ops:
            elapsed = run_op(op, tracer)
            attempted += 1
            if elapsed is None:
                failed += 1
            else:
                times[op.name].append(elapsed)
        tracer.next_pass()
    return times, attempted, failed


def run_probes(wl):
    failures = []
    for probe in wl.probes:
        if run_op(probe, tracing.NullTracer()) is None:
            failures.append(probe.name)
    return failures


def run_workload(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl, own_setup = setup(args.workload, args.seed, workdir)
        setup_times = [own_setup] + child_setup_times(args, SETUPS - 1)
        warm_attempted, warm_failed = warm_up(wl)
        passes = max(1, int(args.seconds // PASS_S[args.workload]))
        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        if args.trace:
            tracer.install()
        try:
            times, attempted, failed = measure(wl, passes, tracer)
        finally:
            if args.trace:
                tracer.uninstall()
        probe_failures = run_probes(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    medians = {name: statistics.median(ts) for name, ts in times.items() if ts}
    attempted += warm_attempted + len(wl.probes)
    failed += warm_failed + len(probe_failures)
    correct = failed == len(probe_failures) and len(medians) == len(wl.ops)
    op_total = sum(medians.values())
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "machine": machine_record(),
        "setup_s_samples": setup_times, "op_samples_s": times,
        "probe_failures": probe_failures, "error_rate": failed / attempted,
    }
    if args.trace:
        layer = tracer.per_pass_metrics(passes)
        layer["netgraph.lifted_mb"] = wl.lifted_mb
        layer["trace.pass_s"] = op_total
        calls = layer.get("simulate.rhs_calls", 0)
        missing = ()
        if calls:
            layer["simulate.rhs_us"] = layer["simulate.integrate_s"] / calls * 1e6
        elif layer.get("simulate.integrate_s", 0.0) > 0.0 or not tracer.rhs_hooked:
            # the kernel integrate dispatches to is gone or no longer called:
            # the counter measures nothing, so it is reported missing, not 0
            missing = ("simulate.rhs_calls", "simulate.rhs_us")
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER if name not in missing}
        summary["spans"] = tracer.spans
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": op_total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary["op_median_s"] = medians
    summary["metrics"] = metrics
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh)

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"machine {json.dumps(summary['machine'])}")
    for name, value in medians.items():
        print(f"  {name + '_s':<40} {value:.6f} s  (median of {len(times[name])})")
    print(f"  {'error_rate':<40} {failed}/{attempted} = {failed / attempted:.4f} ratio"
          f"  (probe failures: {probe_failures or 'none'})")
    for name, m in metrics.items():
        note = "  (computed from the array size)" if name == "netgraph.lifted_mb" else ""
        print(f"  {name:<40} {m['value']:.6f} {m['unit']}{note}")
    if args.trace and "simulate.rhs_calls" not in metrics:
        print("  simulate.rhs_calls, simulate.rhs_us: missing (rhs kernel not called)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload in its own process; prints one table (and tracing overhead)."""
    rows = {}
    for name in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                log(proc.stderr)
                sys.exit(proc.returncode)
            rows[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nworkload   metric                                   value")
    for (name, trace), res in rows.items():
        print(f"{name:<10} correct={res['correct']} failed={res['failed']}/{res['attempted']}")
        for metric, m in res["metrics"].items():
            print(f"{name:<10} {metric:<40} {m['value']:.6f} {m['unit']}")
        if trace:
            overhead = (res["metrics"]["trace.pass_s"]["value"]
                        - rows[name, 0]["metrics"]["pass_s"]["value"])
            print(f"{name:<10} {'tracing overhead (trace.pass_s - pass_s)':<40} {overhead:.6f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="(internal) time one set-up and print it")
    args = ap.parse_args()
    check_checkout()
    if args.workload == "all":
        run_all(args)
    elif args.setup_only:
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT_DIR) as workdir:
            _, elapsed = setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": elapsed}))
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
