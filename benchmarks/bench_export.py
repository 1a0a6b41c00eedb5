"""Wall time of writing trajectory.csv on a ring with chords.

Integrates bench_integrate's ring-with-chords network over HORIZON s,
recorded every RECORD_EVERY s (perfbench's ring256 grid), as --segments
consecutive `integrate_schedule` segments of equal length (one by
default), and times `export_csv` of the segment trajectories REPEAT
times twice: once with the process's full CPU affinity (one forked row
writer per CPU) and once restricted to one CPU (the in-process writer).
It checks that the two files are byte-identical and reports the best and
median of each, the speedup of the medians, and the peak resident memory
(ru_maxrss) of this process and of its largest reaped writer. BLAS runs
on one thread.

It then reports, per network, how far each post-processing stage
raises tracemalloc's traced peak above what was traced before it:
`integrate` above the bytes of the arrays it returns, and
`detect_convergence` (tol 1e-6, the CLI's default) and `export_csv`
(forked writers with all CPUs, the in-process writer on one) above the
trajectory they read.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_export.py [--nodes 64 256] [--repeat 5]
        [--segments 1]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

from couplednet.simulate import (IntegrateOptions, default_initial_state,  # noqa: E402
                                 detect_convergence, export_csv, integrate,
                                 integrate_schedule)

import bench_integrate  # noqa: E402

REPEAT = 5  # timed export_csv calls per affinity; best and median reported
HORIZON = 1.0
RECORD_EVERY = 0.005


def timed(traj, path, repeat):
    """Wall times in s of repeat export_csv(traj, path) calls; traj may be segments."""
    walls = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        export_csv(traj, path)
        walls.append(time.perf_counter() - t0)
    return walls


def run(nodes: int, repeat: int, workdir: str, segments: int) -> dict:
    """Export timings on build_system(nodes) in segments, with all CPUs and with one."""
    system = bench_integrate.build_system(nodes)
    trajs = integrate_schedule([(system, HORIZON / segments)] * segments,
                               default_initial_state(system),
                               IntegrateOptions(record_every=RECORD_EVERY))
    full, single = (os.path.join(workdir, f"{nodes}_{k}.csv") for k in ("full", "one"))
    cpus = os.sched_getaffinity(0)
    # a later segment's first record repeats the boundary and is not written
    rows = sum(t.times.shape[0] for t in trajs) - segments + 1
    width = 1 + 2 * trajs[0].y.shape[1] + 2 * trajs[0].mu.shape[1]
    out = {"values": rows * width, "cpus": len(cpus), "full": timed(trajs, full, repeat)}
    os.sched_setaffinity(0, {min(cpus)})
    try:
        out["one"] = timed(trajs, single, repeat)
    finally:
        os.sched_setaffinity(0, cpus)
    if not filecmp.cmp(full, single, shallow=False):
        raise RuntimeError(f"n = {nodes}: the two writers' files differ")
    return out


def traced_peak(fn):
    """(fn(), bytes the traced peak rose above the traced memory before the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def stage_peaks(nodes: int, workdir: str) -> dict:
    """Traced peak of each post-processing stage on build_system(nodes), in bytes."""
    system = bench_integrate.build_system(nodes)
    init = default_initial_state(system)
    opts = IntegrateOptions(record_every=RECORD_EVERY)
    integrate(system, init, HORIZON, opts)  # warm-up: lazy imports and caches
    traj, peak = traced_peak(lambda: integrate(system, init, HORIZON, opts))
    arrays = sum(a.nbytes for a in (traj.times, traj.states, traj.u, traj.y, traj.zeta, traj.mu))
    out = {"arrays": arrays, "integrate": peak - arrays}
    out["detect_convergence"] = traced_peak(lambda: detect_convergence(traj, tol=1e-6))[1]
    path = os.path.join(workdir, f"{nodes}_peak.csv")
    out["export_all"] = traced_peak(lambda: export_csv(traj, path))[1]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        out["export_one"] = traced_peak(lambda: export_csv(traj, path))[1]
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nodes", type=int, nargs="+", default=[64, 256])
    ap.add_argument("--repeat", type=int, default=REPEAT)
    ap.add_argument("--segments", type=int, default=1,
                    help="integrate_schedule segments the horizon is split into")
    args = ap.parse_args(argv)
    if args.segments < 1:
        ap.error("--segments must be at least 1")
    print(f"{'nodes':>6} {'values':>9} {'cpus':>5} {'all best':>10} {'all median':>11}"
          f" {'one best':>10} {'one median':>11} {'speedup':>8}")
    with tempfile.TemporaryDirectory() as workdir:
        for nodes in args.nodes:
            r = run(nodes, args.repeat, workdir, args.segments)
            med_full, med_one = statistics.median(r["full"]), statistics.median(r["one"])
            print(f"{nodes:>6} {r['values']:>9,} {r['cpus']:>5}"
                  f" {min(r['full']) * 1e3:>7.1f} ms {med_full * 1e3:>8.1f} ms"
                  f" {min(r['one']) * 1e3:>7.1f} ms {med_one * 1e3:>8.1f} ms"
                  f" {med_one / med_full:>7.2f}x")
            sys.stdout.flush()
    # ru_maxrss is in kB on Linux
    print("peak RSS: this process "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB, "
          f"largest writer {resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0:.1f} MB")
    print("\ntraced peak above each stage's inputs, MB (trajectory: its arrays' bytes)")
    print(f"{'nodes':>6} {'trajectory':>11} {'integrate':>10} {'convergence':>12}"
          f" {'export all':>11} {'export one':>11}")
    with tempfile.TemporaryDirectory() as workdir:
        for nodes in args.nodes:
            p = stage_peaks(nodes, workdir)
            print(f"{nodes:>6} {p['arrays'] / 1e6:>11.3f} {p['integrate'] / 1e6:>10.3f}"
                  f" {p['detect_convergence'] / 1e6:>12.3f} {p['export_all'] / 1e6:>11.3f}"
                  f" {p['export_one'] / 1e6:>11.3f}")


if __name__ == "__main__":
    main()
