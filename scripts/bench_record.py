"""Copy a table of benchmark pairs into the next record, BENCH_<n>.json.

Run from the root of the working tree, on the table that
`scripts/perf_pairs.py` wrote:

    python3 scripts/bench_record.py .perfbench_out/pairs-<rev>.json

The record goes to `BENCH_<n>.json` at the root, n one past the highest
existing record (1 for the first). It holds the table as it is, plus:
- `base_rev`: the commit the pairs ran against (the table's `rev`);
- `change_rev`: the working tree's HEAD, with `-dirty` when tracked
  files have changes, as perf_pairs.py times the working tree;
- `host`: `nproc`, the Python and numpy versions, plus:
  - `blas`: the name and version of numpy's BLAS, from
    `numpy.show_config(mode="dicts")`;
  - `cli_modules`: the sorted names of the modules that
    `import couplednet.cli` loads beyond `import numpy, click`, submodules
    included, taken in a fresh process without bytecode writes;
- `src_lines`: the line count of `src/couplednet/*.py`;
- `src_lines_by_module`: the line count of each `src/couplednet/*.py`;
- `reach`: per category of `scripts/reach.py`, the defs the commands
  never enter and their lines;
- `traced`: for each workload of the table, the per-layer metrics of one
  `perfbench/run.py --seed 1 --trace 1` run on the working tree (as the
  pairs, without bytecode writes), among them the counters no host can
  move, such as `simulate.rhs_calls`.
"""
import glob
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reach  # noqa: E402


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def next_path():
    """BENCH_<n>.json with n one past the highest existing."""
    taken = [int(m.group(1)) for m in (re.fullmatch(r"BENCH_(\d+)\.json", p)
                                       for p in glob.glob("BENCH_*.json")) if m]
    return f"BENCH_{max(taken, default=0) + 1}.json"


def src_lines_by_module():
    """{file name: its line count} for src/couplednet/*.py, as `wc -l` gives it."""
    lines = {}
    for path in sorted(glob.glob(os.path.join("src", "couplednet", "*.py"))):
        with open(path, "rb") as fh:
            lines[os.path.basename(path)] = fh.read().count(b"\n")
    return lines


def cli_modules():
    """Sorted names of the modules `import couplednet.cli` adds to `import numpy, click`."""
    code = ("import sys, numpy, click\n"
            "before = set(sys.modules)\n"
            "import couplednet.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.abspath("src"))
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env)
    return run.stdout.split()


def traced(workloads):
    """{workload: the per-layer metrics of one traced run} for each of workloads."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    metrics = {}
    for workload in workloads:
        run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", "1", "--trace", "1"], check=True, capture_output=True,
                             text=True, env=env)
        metrics[workload] = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
    return metrics


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    if not os.path.isfile(os.path.join("scripts", "perf_pairs.py")):
        sys.exit("run from the root of the working tree")
    with open(sys.argv[1]) as fh:
        pairs = json.load(fh)
    by_module = src_lines_by_module()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "base_rev": git("rev-parse", "--verify", pairs["rev"] + "^{commit}"),
        "change_rev": git("describe", "--always", "--dirty", "--abbrev=40"),
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas": {key: blas[key] for key in ("name", "version")},
                 "cli_modules": cli_modules()},
        "src_lines": sum(by_module.values()),
        "src_lines_by_module": by_module,
        "reach": {category: {"defs": len(rows), "lines": sum(n for _, _, n in rows)}
                  for category, rows in reach.measure()[0].items()},
        "traced": traced(pairs["workloads"]),
        **pairs,
    }
    path = next_path()
    with open(path, "x") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"written: {path}")


if __name__ == "__main__":
    main()
