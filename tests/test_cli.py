import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from couplednet import cli
from couplednet.cli import main
from couplednet.config import (SCHEMA, agent_to_spec, controller_to_spec,
                               parse_config)

from conftest import mixed_network

FORMATION = Path(__file__).resolve().parents[1] / "configs" / "formation.json"


def run_cli(*args):
    with pytest.raises(SystemExit) as ex:
        main(list(args))
    return ex.value.code


def hand_doc(**extra):
    doc = {
        "schema": SCHEMA,
        "graph": {"nodes": 2, "edges": [[0, 1]]},
        "agents": [
            {"type": "linear", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
            {"type": "linear", "A": [[-2.0]], "B": [[1.0]], "C": [[1.0]],
             "w": [6.0]},
        ],
        "controllers": [{"type": "linear_synthesis", "offset": [1.0]}],
    }
    doc.update(extra)
    return doc


def write_doc(tmp_path, doc, name="net.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_predict_writes_certificate(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("predict", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "duality_gap" in out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert np.allclose(cert["y"], [0.8, 2.6], atol=1e-6)
    assert abs(cert["duality_gap"]) <= 1e-6
    header = (tmp_path / "opp_trace.csv").read_text().splitlines()[0]
    assert header.startswith("iter")


def test_simulate_plain_horizon(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc(simulation={"horizon": 40.0}))
    code = run_cli("simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "converged = True" in out
    assert "prediction_pass = True" in out
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "summary.txt").read_text().startswith("converged")


def test_simulate_requires_horizon(tmp_path):
    cfg = write_doc(tmp_path, hand_doc())
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 1


@pytest.mark.parametrize("bad", [{"record_every": 0.0}, {"tol": -1.0},
                                 {"dt": 0.0}, {"dt": "fast"},
                                 {"method": "euler"}, {"conv_tol": -1.0},
                                 {"conv_tol": "tight"}],
                         ids=["record_every", "tol", "dt", "dt_text", "method",
                              "conv_tol", "conv_tol_text"])
def test_simulate_rejects_bad_options_before_planning(tmp_path, capsys,
                                                      monkeypatch, bad):
    doc = json.loads(FORMATION.read_text())
    doc["simulation"].update(bad)
    cfg = write_doc(tmp_path, doc)

    def no_plan(cfg):
        raise AssertionError("planned before checking the options")

    monkeypatch.setattr(cli, "_plan_segments", no_plan)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 1
    assert "config error: simulation:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_objective_schedule(tmp_path, capsys):
    doc = hand_doc(objective={"targets": [[1.0, -1.0], [2.0, 2.0]],
                              "durations": [25.0, 25.0], "leader": 0})
    cfg = write_doc(tmp_path, doc)
    code = run_cli("simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("converged = True") == 2
    assert out.count("prediction_pass = True") == 2


def test_synthesize_forcible_absolute(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("synthesize", "--config", cfg, "--out", str(tmp_path),
                   "--target", "[2.0, 2.0]")
    assert code == 0
    out = capsys.readouterr().out
    assert "forcible = True" in out
    patch = json.loads((tmp_path / "patch.json").read_text())
    parsed = parse_config(patch)
    assert parsed.graph.node_count == 2
    assert (tmp_path / "synthesis_report.txt").exists()


def test_synthesize_nonforcible_absolute_fails(tmp_path):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("synthesize", "--config", cfg, "--out", str(tmp_path),
                   "--target", "[1.0, -1.0]")
    assert code == 2


def test_synthesize_relative_mode(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("synthesize", "--config", cfg, "--out", str(tmp_path),
                   "--target", "[1.0, -1.0]", "--mode", "relative")
    assert code == 0
    out = capsys.readouterr().out
    assert "mode = relative" in out
    # the forcible line reports y*, which relative mode had to shift
    assert "forcible = False" in out


def test_synthesize_with_leader(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("synthesize", "--config", cfg, "--out", str(tmp_path),
                   "--target", "[1.0, -1.0]", "--leader", "0")
    assert code == 0
    out = capsys.readouterr().out
    assert "leader = 0" in out
    patch = json.loads((tmp_path / "patch.json").read_text())
    offs = [a.get("leader_offset") for a in patch["agents"]]
    assert offs[0] is not None


def test_synthesize_leader_report_says_equation_holds(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("synthesize", "--config", cfg, "--out", str(tmp_path),
                   "--target", "[1.0, -1.0]", "--leader", "0")
    assert code == 0
    assert "steady-state equation holds = True" in capsys.readouterr().out


def test_synthesize_leader_out_of_range_is_config_error(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("synthesize", "--config", cfg, "--out", str(tmp_path),
                   "--target", "[2.0, 2.0]", "--leader", "5")
    assert code == 1
    assert "--leader" in capsys.readouterr().err
    assert not (tmp_path / "patch.json").exists()


def test_check_cm_exact_and_randomized(tmp_path, capsys):
    doc = hand_doc()
    doc["agents"][1] = {"type": "convex_gradient",
                        "psi": {"kind": "quadratic", "P": [[2.0]]}}
    cfg = write_doc(tmp_path, doc)
    code = run_cli("check-cm", "--config", cfg, "--out", str(tmp_path),
                   "--samples", "200")
    assert code == 0
    out = capsys.readouterr().out
    assert "agent 0: yes" in out
    assert "agent 1: yes" in out
    assert "controller 0: yes-strict" in out
    report = json.loads((tmp_path / "cm_report.json").read_text())
    assert report["agents"][0]["exact"] is True
    assert report["agents"][1]["exact"] is False


def test_check_cm_paper_psi_agent(tmp_path, capsys):
    doc = {
        "schema": SCHEMA,
        "graph": {"nodes": 2, "edges": [[0, 1]]},
        "agents": [
            {"type": "linear", "A": [[-1.0, 0.0], [0.0, -1.0]],
             "B": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]},
            {"type": "convex_gradient", "psi": {"kind": "paper_psi", "dim": 2}},
        ],
        "controllers": [{"type": "linear_synthesis", "offset": [1.0, 0.0]}],
    }
    cfg = write_doc(tmp_path, doc)
    code = run_cli("check-cm", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert "agent 1: yes" in capsys.readouterr().out


def test_check_cm_zero_samples_is_usage_error(tmp_path):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("check-cm", "--config", cfg, "--out", str(tmp_path),
                   "--samples", "0")
    assert code != 0
    assert not (tmp_path / "cm_report.json").exists()


def test_verify_accepts_true_candidate(tmp_path, capsys):
    doc = hand_doc(candidate={"u": [0.8, -0.8], "y": [0.8, 2.6],
                              "zeta": [1.8], "mu": [0.8]})
    cfg = write_doc(tmp_path, doc)
    code = run_cli("verify", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert "valid = True" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["valid"] is True


def test_verify_rejects_wrong_candidate(tmp_path):
    doc = hand_doc(candidate={"u": [0.0, 0.0], "y": [0.0, 0.0],
                              "zeta": [0.0], "mu": [0.0]})
    cfg = write_doc(tmp_path, doc)
    code = run_cli("verify", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["valid"] is False


def test_verify_negative_tol_is_usage_error(tmp_path, capsys):
    doc = hand_doc(candidate={"u": [0.8, -0.8], "y": [0.8, 2.6],
                              "zeta": [1.8], "mu": [0.8]})
    cfg = write_doc(tmp_path, doc)
    code = run_cli("verify", "--config", cfg, "--out", str(tmp_path),
                   "--tol", "-1")
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_missing_config_option_is_usage_error():
    assert run_cli("predict") == 1


def test_unreadable_config_path(tmp_path):
    missing = str(tmp_path / "absent.json")
    assert run_cli("predict", "--config", missing) == 1


def test_predict_refuses_unbalanced_integrator_cycle(tmp_path, capsys):
    integ = {"type": "integrator",
             "potential": {"kind": "quadratic", "P": [[1.0]]}}
    doc = hand_doc(
        graph={"nodes": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
        agents=[{"type": "linear", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}] * 3,
        controllers=[{"type": "reconfigured", "inner": integ,
                      "alpha": [1.0], "beta": [0.0]}] * 3)
    cfg = write_doc(tmp_path, doc)
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "Infeasible" in capsys.readouterr().err


def test_predict_refuses_saturated_integrator(tmp_path, capsys):
    # the unconstrained optimum asks the saturating integrator for an
    # effort outside its output range, so there is no steady state
    g, agents, ctrls = mixed_network(seed=3)
    doc = hand_doc(graph={"nodes": 3, "edges": [list(e) for e in g.edges]},
                   agents=[agent_to_spec(a) for a in agents],
                   controllers=[controller_to_spec(c) for c in ctrls])
    cfg = write_doc(tmp_path, doc)
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "Infeasible" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_simulation_is_numeric_error(tmp_path, capsys):
    # fixed steps far beyond the stability limit blow the state up
    cfg = write_doc(tmp_path, hand_doc(
        simulation={"method": "rk4", "dt": 10.0, "horizon": 5000.0}))
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 3
    assert "NonFiniteState" in capsys.readouterr().err


def test_console_script_round_trip(tmp_path):
    exe = shutil.which("couplednet")
    if exe is None:
        pytest.skip("console script not installed")
    cfg = write_doc(tmp_path, hand_doc())
    res = subprocess.run([exe, "predict", "--config", cfg,
                          "--out", str(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "duality_gap" in res.stdout
    assert (tmp_path / "certificate.json").exists()
