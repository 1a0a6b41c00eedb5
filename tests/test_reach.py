"""scripts/reach.py sorts every def the commands never enter, and src/ keeps
no code that only tests reach beyond the set kept on purpose."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"
CATEGORIES = ("pinned by perfbench/workloads.py", "pinned by perfbench/tracer.py",
              "awaiting items 4/31", "tests-only")
# the public one-agent constructor beside the two the benchmark uses, and the
# __bool__s that keep a failed report falsy
KEPT = {"plants.linear_agent", "plants._as_matrix", "netopt.VerifyReport.__bool__",
        "synthesis.ForcibilityReport.__bool__", "relations.CmResult.__bool__"}


def sections(text):
    """{heading: [first word of each indented line]} of the script's report."""
    out, current = {}, None
    for line in text.splitlines():
        if line.startswith("  "):
            out[current].append(line.split()[0])
        else:
            current = line.split(":")[0]
            out[current] = []
    return out


def test_tests_only_defs_are_the_kept_set():
    res = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    report = sections(res.stdout)
    assert set(report) == {"exit codes (predict, verify, check-cm, simulate, synthesize "
                           "absolute, relative, --leader 0)",
                           "defs the commands never enter", *CATEGORIES}
    assert set(report["tests-only"]) == KEPT
    assert len(report["tests-only"]) == len(KEPT)
    # each refused document is refused by predict with its own exit code
    codes = dict(line.split(": ") for line in res.stdout.splitlines()
                 if line.startswith("  refused"))
    assert {name.strip(): rows.split()[0] for name, rows in codes.items()} == {
        f"refused{k}": str(k) for k in range(1, 5)}
