import json
import math
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
    # one segment that carries predict's certificate, so the dense map's proof ends it
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("segment 0: converged = True, proof = lyapunov, ")
    assert float(lines[0].rsplit(", t_stop = ", 1)[1]) < 40.0


def test_plain_run_of_a_refused_network_is_simulated(tmp_path):
    # paper_psi agents have no affine relation, so predict refuses them (exit 4)
    agent = {"type": "convex_gradient", "psi": {"kind": "paper_psi", "dim": 1}}
    doc = hand_doc(agents=[dict(agent, w=[0.3]), dict(agent, w=[-0.1])],
                   controllers=[{"type": "linear_synthesis", "offset": [0.2]}],
                   simulation={"horizon": 400.0, "conv_tol": 1e-4})
    cfg = write_doc(tmp_path, doc)
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path / "predict")) == 4
    out = tmp_path / "simulate"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
    assert (out / "trajectory.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "segment 0: converged = True, y_ss = " in summary
    assert "prediction_pass = None" in summary  # no certificate to pass
    assert any(line.startswith("segment 0: certificate refused: outside the theory: "
                               "UnsupportedKind: ")
               and line.endswith("(predict exits 4)") for line in summary.splitlines())


def test_simulate_requires_horizon(tmp_path):
    cfg = write_doc(tmp_path, hand_doc())
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 1


@pytest.mark.parametrize("section, bad", [
    pytest.param("simulation", {"record_every": 0.0}, id="record_every"),
    # a record every 6 s leaves one record in a 30 s segment's 3 s window
    pytest.param("simulation", {"record_every": 6.0}, id="record_every_coarse"),
    pytest.param("simulation", {"tol": -1.0}, id="tol"),
    pytest.param("simulation", {"method": "euler"}, id="method"),
    pytest.param("simulation", {"method": "rk4"}, id="method_rk4"),
    pytest.param("simulation", {"conv_tol": -1.0}, id="conv_tol"),
    pytest.param("simulation", {"conv_tol": "tight"}, id="conv_tol_text"),
    pytest.param("simulation", {"initial_state": "abc"}, id="initial_state_text"),
    # formation's 24 states, one NaN: refused as non-finite, not for its length
    pytest.param("simulation", {"initial_state": [0.0] * 23 + [float("nan")]},
                 id="initial_state_nan"),
    pytest.param("simulation", {"initial_state": [0.0, 1.0, 2.0]}, id="initial_state_length"),
    pytest.param("solver", {"tol": "x"}, id="solver_tol_text"),
    pytest.param("solver", {"tol": -1.0}, id="solver_tol"),
    pytest.param("solver", {"tol": float("nan")}, id="solver_tol_nan"),
    pytest.param("objective", {"durations": ["a"] * 5}, id="durations_text"),
    pytest.param("objective", {"durations": [float("nan")] * 5}, id="durations_nan"),
    pytest.param("objective", {"targets": [[float("nan")] * 8], "durations": [30.0]},
                 id="target_nan"),
    pytest.param("objective", {"targets": [[{"a": 1}] * 8], "durations": [30.0]},
                 id="target_text"),
])
def test_simulate_rejects_bad_options_before_planning(tmp_path, capsys,
                                                      monkeypatch, section, bad):
    doc = json.loads(FORMATION.read_text())
    doc[section].update(bad)
    cfg = write_doc(tmp_path, doc)

    def no_plan(cfg):
        raise AssertionError("planned before checking the options")

    monkeypatch.setattr(cli, "_plan_segments", no_plan)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"config error: {section}" in err
    key = next(iter(bad))  # the refused key
    assert (f"config error: simulation: {key}: " if section == "simulation" else key) in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["tol", "record_every", "conv_tol"])
def test_simulate_refuses_nonfinite_options(tmp_path, capsys, key):
    cfg = write_doc(tmp_path, hand_doc(simulation={"horizon": 2.0, key: float("inf")}))
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert f"config error: simulation: {key}: must be finite and positive" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", ["long", float("nan"), float("inf")])
def test_simulate_rejects_bad_horizon_before_building(tmp_path, capsys, monkeypatch,
                                                      horizon):
    cfg = write_doc(tmp_path, hand_doc(simulation={"horizon": horizon}))

    def no_build(*args):
        raise AssertionError("built the closed loop before checking the horizon")

    monkeypatch.setattr(cli, "closed_loop", no_build)
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    assert "config error: simulation: horizon: " in capsys.readouterr().err


def test_simulate_objective_schedule(tmp_path, capsys):
    doc = hand_doc(objective={"targets": [[1.0, -1.0], [2.0, 2.0]],
                              "durations": [25.0, 25.0], "leader": 0})
    cfg = write_doc(tmp_path, doc)
    code = run_cli("simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("converged = True") == 2
    assert out.count("prediction_pass = True") == 2


def formation_schedule(tmp_path, targets):
    """summary.txt lines and exit code of formation's simulate on targets, 30 s each."""
    doc = json.loads(FORMATION.read_text())
    doc["objective"].update(targets=targets, durations=[30.0] * len(targets))
    out = tmp_path / "out"
    code = run_cli("simulate", "--config", write_doc(tmp_path, doc), "--out", str(out))
    return (out / "summary.txt").read_text().splitlines(), code


# the reconfigured paper_psi edges cannot emit the efforts this target asks
FAR_TARGET = [0, 0, 0, 0, 0, 0, 50, 50]


def test_a_scheduled_target_s_refused_certificate_is_named(tmp_path):
    lines, code = formation_schedule(tmp_path, [FAR_TARGET])
    assert code == 0
    assert len(lines) == 2
    assert lines[0].startswith("segment 0: certificate refused: infeasible: Infeasible: "
                               "optimum fails its certificate: residuals ")
    assert lines[0].endswith(" (predict exits 2)")
    assert lines[1].startswith("segment 0: converged = ")
    assert "prediction_pass = None" in lines[1]  # no certificate to pass


def test_each_refusal_comes_before_its_segment_s_line(tmp_path):
    lines, code = formation_schedule(tmp_path, [[1, 1, 2, 2, 3, 3, 4, 4], FAR_TARGET])
    assert code == 0
    assert len(lines) == 3
    assert lines[0].startswith("segment 0: converged = True, proof = lyapunov, ")
    assert lines[0].count("prediction_pass = True") == 1
    assert lines[1].startswith("segment 1: certificate refused: infeasible: ")
    assert lines[2].startswith("segment 1: converged = ")


def counting(monkeypatch, name):
    """Calls of simulate's name, from the CLI and from within simulate."""
    import couplednet.simulate as sim

    calls = []
    real = getattr(sim, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (cli, sim):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("objective", [True, False], ids=["schedule", "horizon"])
def test_simulate_settles_at_the_config_conv_tol(tmp_path, monkeypatch, objective):
    # these runs settle within 1e-3 but not within 1e-6 of their window
    doc = json.loads(FORMATION.read_text())
    doc["simulation"]["conv_tol"] = 1e-3
    if objective:
        doc["objective"]["durations"] = [12.0] * 5
    else:
        del doc["objective"]
        doc["simulation"]["horizon"] = 10.0
    detections = counting(monkeypatch, "detect_convergence")
    reports = counting(monkeypatch, "prediction_report")
    assert run_cli("simulate", "--config", write_doc(tmp_path, doc),
                   "--out", str(tmp_path)) == 0
    summary = (tmp_path / "summary.txt").read_text()
    segments = 5 if objective else 1
    assert summary.count("converged = True") == segments
    assert "converged = False" not in summary
    assert (tmp_path / "trajectory.csv").exists()
    # each segment is judged once, by integrate; the CLI reads its verdict
    assert len(detections) == 0
    assert len(reports) == segments


def test_simulate_refuses_a_horizon_too_coarsely_recorded_to_judge(tmp_path, capsys,
                                                                     monkeypatch):
    # a record every 0.5 s leaves one record in a 2 s horizon's 0.2 s window
    cfg = write_doc(tmp_path, hand_doc(simulation={"horizon": 2.0, "record_every": 0.5}))

    def no_build(*args):
        raise AssertionError("built the closed loop before checking the record grid")

    monkeypatch.setattr(cli, "closed_loop", no_build)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 1
    assert "config error: simulation: record_every: " in capsys.readouterr().err
    assert not out.exists()


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


def test_synthesize_formation_leader_report(tmp_path):
    assert run_cli("synthesize", "--config", str(FORMATION), "--out", str(tmp_path),
                   "--leader", "0") == 0
    report = dict(line.split(" = ", 1) for line in
                  (tmp_path / "synthesis_report.txt").read_text().splitlines())
    assert report["forcible"].startswith("False ")
    assert report["steady-state equation holds"] == "True"
    assert report["edge potentials strictly convex"] == "True"
    assert report["node potential sum strictly convex near target"] == "True"
    assert float(report["stationarity residual"]) <= 1e-8


@pytest.mark.parametrize("target", ["[NaN, 0, 0, 0, 0, 0, 0, 0]",
                                    "[0, 0, 0, 0, 0, 0, 0, Infinity]",
                                    '{"a": 1}', '["a", 0, 0, 0, 0, 0, 0, 0]',
                                    "[0, 0]", "[0, 0"])
def test_synthesize_refuses_malformed_target(tmp_path, capsys, target):
    assert run_cli("synthesize", "--config", str(FORMATION), "--out", str(tmp_path),
                   "--target", target) == 1
    assert "config error: --target" in capsys.readouterr().err
    assert not (tmp_path / "patch.json").exists()


def test_synthesize_leader_out_of_range_is_config_error(tmp_path, capsys):
    cfg = write_doc(tmp_path, hand_doc())
    code = run_cli("synthesize", "--config", cfg, "--out", str(tmp_path),
                   "--target", "[2.0, 2.0]", "--leader", "5")
    assert code == 1
    assert "--leader" in capsys.readouterr().err
    assert not (tmp_path / "patch.json").exists()


def test_check_cm_is_exact_on_every_agent(tmp_path, capsys):
    doc = hand_doc()
    doc["agents"][1] = {"type": "convex_gradient",
                        "psi": {"kind": "quadratic", "P": [[2.0]]}}
    cfg = write_doc(tmp_path, doc)
    code = run_cli("check-cm", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "agent 0: yes\n" in out
    assert "agent 1: yes-strict\n" in out
    assert "controller 0: yes-strict" in out
    report = json.loads((tmp_path / "cm_report.json").read_text())
    assert [row["exact"] for row in report["agents"]] == [True, True]
    # a quadratic psi with a skew J has an asymmetric gain: "no", decided exactly
    eye = [[1.0, 0.0], [0.0, 1.0]]
    doc = {"schema": SCHEMA, "graph": {"nodes": 2, "edges": [[0, 1]]},
           "agents": [{"type": "convex_gradient", "psi": {"kind": "quadratic", "P": eye},
                       "J": [[0.0, 0.5], [-0.5, 0.0]]},
                      {"type": "linear", "A": [[-1.0, 0.0], [0.0, -1.0]], "B": eye, "C": eye}],
           "controllers": [{"type": "linear_synthesis", "offset": [1.0, 0.0]}]}
    assert run_cli("check-cm", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "cm_report.json").read_text())
    assert report["agents"] == [{"verdict": "no", "reason": "asymmetric", "exact": True},
                                {"verdict": "yes", "reason": None, "exact": True}]


def test_check_cm_decides_a_singular_agent_before_its_gain(tmp_path, capsys):
    # a singular A has no gain to solve for, but it is not Hurwitz either
    doc = hand_doc()
    doc["agents"][0]["A"] = [[0.0]]
    cfg = write_doc(tmp_path, doc)
    assert run_cli("check-cm", "--config", cfg, "--out", str(tmp_path)) == 0
    assert "agent 0: no (not Hurwitz)\nagent 1: yes\n" in capsys.readouterr().out
    report = json.loads((tmp_path / "cm_report.json").read_text())
    assert report["agents"][0] == {"verdict": "no", "reason": "not Hurwitz", "exact": True}
    # predict needs the gain
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == cli.EXIT_NUMERIC
    assert "SingularMatrix: A is numerically singular" in capsys.readouterr().err


EYE2 = [[1.0, 0.0], [0.0, 1.0]]
PAIR2 = {"type": "linear", "A": [[-1.0, 0.0], [0.0, -1.0]], "B": EYE2, "C": EYE2}
# (agents, the refusal naming the one whose gain no network potential covers)
NO_POTENTIAL = {
    "indefinite": ([dict(hand_doc()["agents"][0], A=[[1.0]]), hand_doc()["agents"][1]],
                   "agents[0]: steady-state gain is not positive semi-definite"),
    "asymmetric": ([PAIR2, {"type": "convex_gradient", "psi": {"kind": "quadratic", "P": EYE2},
                            "J": [[0.0, 0.5], [-0.5, 0.0]]}],
                   "agents[1]: steady-state gain must be symmetric to integrate"),
    "singular": ([PAIR2, dict(PAIR2, C=[[1.0, 0.0], [0.0, 0.0]])],
                 "agents[1]: steady-state gain is singular but not zero"),
}


@pytest.mark.parametrize("case", NO_POTENTIAL)
def test_a_gain_with_no_potential_is_refused_by_name(tmp_path, capsys, case):
    # A = 1 settles at the gain -1: predict once called it a degenerate quadratic
    agents, message = NO_POTENTIAL[case]
    d = len(agents[0]["C"])
    cfg = write_doc(tmp_path, hand_doc(agents=agents, controllers=[
        {"type": "linear_synthesis", "offset": [1.0] * d}]))
    for command, *extra in (("predict",), ("synthesize", "--target", json.dumps([0.0] * 2 * d))):
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path),
                       *extra) == cli.EXIT_UNSUPPORTED
        assert f"UnsupportedKind: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("P, code", [([[0.0]], cli.EXIT_MATH), ([[2.0]], cli.EXIT_OK)],
                         ids=["singular", "regular"])
def test_an_effort_a_singular_integrator_cannot_emit_is_refused_by_name(tmp_path, capsys,
                                                                         P, code):
    # mu = P eta + q is 0.5 whatever eta: the optimum's mu = 2 is no steady state
    # (simulate settles at mu = 0.5); with P = 2 the same mu is P eta + q at eta = 0.75
    cfg = write_doc(tmp_path, hand_doc(controllers=[
        {"type": "integrator", "potential": {"kind": "quadratic", "P": P, "q": [0.5]}}]))
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("infeasible: Infeasible: controllers[0]: the certified effort (2) is "
                       "outside its potential's output range q + beta + range(P)\n")
        assert not (tmp_path / "certificate.json").exists()
    else:
        mu = json.loads((tmp_path / "certificate.json").read_text())["mu"]
        assert mu == pytest.approx([2.0], abs=1e-12)


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
    assert "agent 1: yes (inverse gradient of a convex potential)" in capsys.readouterr().out
    report = json.loads((tmp_path / "cm_report.json").read_text())
    assert report["agents"][1] == {"verdict": "yes", "exact": True,
                                   "reason": "inverse gradient of a convex potential"}


def test_removed_options_are_usage_errors(tmp_path):
    # check-cm samples nothing and no command reads a seed
    cfg = write_doc(tmp_path, hand_doc())
    calls = [("check-cm", "--samples", "5")] + [
        (command, "--seed", "3")
        for command in ("predict", "simulate", "synthesize", "check-cm", "verify")]
    for k, (command, *option) in enumerate(calls):
        out = tmp_path / f"out{k}"
        assert run_cli(command, "--config", cfg, "--out", str(out), *option) == 1
        assert not out.exists()


def test_edgeless_network_runs_every_command(tmp_path):
    # one node and no edges: y = v, with empty zeta and mu
    doc = {"schema": SCHEMA, "graph": {"nodes": 1, "edges": []},
           "agents": [{"type": "linear", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "w": [2.0]}],
           "simulation": {"horizon": 20.0}}
    cfg = write_doc(tmp_path, doc)
    for command, *extra in (("predict",), ("simulate",), ("check-cm",),
                            ("synthesize", "--target", "[2.0]")):
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path), *extra) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["y"] == [2.0] and cert["zeta"] == [] and cert["mu"] == []
    assert "prediction_pass = True" in (tmp_path / "summary.txt").read_text()
    cand = write_doc(tmp_path, dict(doc, candidate={k: cert[k] for k in ("u", "y", "zeta", "mu")}),
                     name="candidate.json")
    assert run_cli("verify", "--config", cand, "--out", str(tmp_path)) == 0
    assert json.loads((tmp_path / "verify.json").read_text())["valid"] is True


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


@pytest.mark.parametrize("gap", [1e-6, -1e-6, float("nan")])
def test_predict_refuses_a_duality_gap_above_its_bound(tmp_path, capsys, monkeypatch, gap):
    # the hand network's objectives are O(1), so the bound
    # 1e-8 * (1 + |OPP| + |OFP|) is well below 1e-6
    monkeypatch.setattr(cli, "duality_gap", lambda *args: gap)
    cfg = write_doc(tmp_path, hand_doc())
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "Infeasible: duality gap" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("M", [[[float("nan"), 0.0], [0.0, 1.0]],
                               [[float("inf"), 0.0], [0.0, 1.0]],
                               [[1.0, 2.0], [2.0, 4.0]],
                               [[1.0, 0.0], [0.0, 1e-14]]],
                         ids=["nan", "inf", "singular", "ill_conditioned"])
def test_predict_refuses_oscillator_without_inverse(tmp_path, capsys, M):
    # the bad M is the second of one group: its one stacked check names it
    osc = {"type": "oscillator", "M": [[1.0, 0.0], [0.0, 1.0]], "B": np.eye(2).tolist()}
    doc = hand_doc(agents=[osc, dict(osc, M=M)],
                   controllers=[{"type": "linear_synthesis", "offset": [1.0, 0.0]}])
    cfg = write_doc(tmp_path, doc)
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "SingularMatrix: agents[1].M: M is" in err
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("where", ["integrator", "damping", "psi"])
def test_predict_refuses_indicator_zero_functions(tmp_path, capsys, where):
    # the gradient of indicator_zero exists only at 0: as a config function
    # simulate would fail where predict certified
    indicator = {"kind": "indicator_zero", "dim": 2}
    if where == "integrator":
        doc = _oscillator_doc()
        doc["controllers"] = [{"type": "integrator", "potential": indicator}]
        field = "controllers[0].potential"
    elif where == "damping":
        doc = _oscillator_doc()
        doc["agents"][1]["damping"], field = indicator, "agents[1].damping"
    else:
        doc = _convex_gradient_doc()
        doc["agents"][1]["psi"], field = indicator, "agents[1].psi"
    cfg = write_doc(tmp_path, doc)
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == 1
    assert f"config error: {field}.kind: 'indicator_zero'" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_json_text_is_the_indenting_encoders():
    doc = {"u": [0.1, -2e-17, 1e300, 5e-324, -0.0, 3, math.nan, math.inf, -math.inf],
           "residual": 1.5e-12, "method": "equality-qp", "iterations": [1], "empty": [],
           "none": {}, "flag": True, "nested": [[1.0, 2.0], [], [{"a": [1, "b, c"]}]]}
    for obj in (doc, [], {}, [1.0], "text", 2.5):
        assert cli._json_text(obj, "") == json.dumps(obj, indent=2)


def _oscillator_doc():
    osc = {"type": "oscillator", "M": np.eye(2).tolist(), "B": np.eye(2).tolist()}
    return hand_doc(agents=[osc, dict(osc)],
                    controllers=[{"type": "linear_synthesis", "offset": [1.0, 0.0]}])


def _reconfigured_doc():
    doc = hand_doc()
    doc["controllers"] = [{"type": "reconfigured", "inner": doc["controllers"][0],
                           "alpha": [0.5], "beta": [0.0]}]
    return doc


def _integrator_doc():
    return hand_doc(controllers=[{"type": "integrator",
                                  "potential": {"kind": "quadratic", "P": [[1.0]]}}])


def _feedthrough_doc():
    doc = hand_doc()
    doc["agents"][0]["T"] = [[0.0]]
    return doc


def _convex_gradient_doc():
    grad = {"type": "convex_gradient", "psi": {"kind": "quadratic", "P": np.eye(2).tolist()},
            "J": np.zeros((2, 2)).tolist(), "B": np.eye(2).tolist(), "C": np.eye(2).tolist()}
    return hand_doc(agents=[grad, dict(grad)],
                    controllers=[{"type": "linear_synthesis", "offset": [1.0, 0.0]}])


# (document, path to the value, a finite value there, the field its refusal
# names); the test puts a non-finite number in the value's first entry
NONFINITE_FIELDS = {
    "agent_w": (hand_doc, ("agents", 1, "w"), [0.0], "agents[1].w"),
    "oscillator_anchor": (_oscillator_doc, ("agents", 0, "anchor"), [0.0, 0.0],
                          "agents[0].anchor"),
    "leader_offset": (hand_doc, ("agents", 0, "leader_offset"), [0.0],
                      "agents[0].leader_offset"),
    "synthesis_offset": (hand_doc, ("controllers", 0, "offset"), [0.0], "controllers[0].offset"),
    "reconfigured_alpha": (_reconfigured_doc, ("controllers", 0, "alpha"), [0.0],
                           "controllers[0].alpha"),
    "integrator_P": (_integrator_doc, ("controllers", 0, "potential", "P"), [[1.0]],
                     "controllers[0].potential.P"),
    "linear_B": (hand_doc, ("agents", 0, "B"), [[1.0]], "agents[0].B"),
    "linear_C": (hand_doc, ("agents", 0, "C"), [[1.0]], "agents[0].C"),
    "linear_T": (_feedthrough_doc, ("agents", 0, "T"), [[0.0]], "agents[0].T"),
    "oscillator_B": (_oscillator_doc, ("agents", 0, "B"), np.eye(2).tolist(), "agents[0].B"),
    "gradient_J": (_convex_gradient_doc, ("agents", 0, "J"), np.zeros((2, 2)).tolist(),
                   "agents[0].J"),
    "gradient_B": (_convex_gradient_doc, ("agents", 0, "B"), np.eye(2).tolist(), "agents[0].B"),
    "gradient_C": (_convex_gradient_doc, ("agents", 0, "C"), np.eye(2).tolist(), "agents[0].C"),
    "psi_P": (_convex_gradient_doc, ("agents", 0, "psi", "P"), np.eye(2).tolist(),
              "agents[0].psi.P"),
    "psi_c": (_convex_gradient_doc, ("agents", 0, "psi", "c"), 0.0, "agents[0].psi.c"),
}


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(NONFINITE_FIELDS))
def test_predict_refuses_nonfinite_model_values(tmp_path, capsys, case, value):
    make_doc, path, finite, field = NONFINITE_FIELDS[case]
    doc = make_doc()
    bad = np.array(finite)
    bad.flat[0] = value
    _put(doc, path, bad.tolist())
    cfg = write_doc(tmp_path, doc)
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == 1
    assert f"config error: {field}: values must be finite" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("path, field", [
    pytest.param(("controllers", 0, "offset"), "controllers[0].offset", id="vector"),
    pytest.param(("agents", 0, "B"), "agents[0].B", id="matrix"),
])
def test_predict_names_missing_field(tmp_path, capsys, path, field):
    doc = hand_doc()
    spec = doc
    for key in path[:-1]:
        spec = spec[key]
    del spec[path[-1]]
    cfg = write_doc(tmp_path, doc)
    assert run_cli("predict", "--config", cfg, "--out", str(tmp_path)) == 1
    assert f"config error: {field}: missing" in capsys.readouterr().err


def test_nonfinite_simulation_is_numeric_error(tmp_path, capsys):
    # an unstable agent (x' = 5x + u) drives the state past the float range
    doc = hand_doc(simulation={"horizon": 500.0})
    doc["agents"][0]["A"] = [[5.0]]
    cfg = write_doc(tmp_path, doc)
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "NonFiniteState" in err and "RuntimeWarning" not in err


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


# README's exit-code paragraph: each code, the words it opens with, and the
# errors _guard sends to it
EXITS = {
    0: ("success", ()),
    1: ("config or usage error", (cli.ConfigInvalid,)),
    2: ("mathematical infeasibility", cli._MATH_ERRORS),
    3: ("numerical failure", cli._NUMERIC_ERRORS),
    4: ("valid config outside the theory", (cli.UnsupportedKind,)),
}


def test_guard_codes_agree_with_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = " ".join(readme.split("Exit codes: ", 1)[1].split("\n\n", 1)[0].split())
    depth, top = 0, ""  # the paragraph without its parenthetical lists
    for ch in paragraph:
        depth += (ch == "(") - (ch == ")")
        top += ch if depth == 0 and ch != ")" else ""
    items = [item.strip() for item in top.split(".")[0].split(",")]
    assert items == [f"{code} {words}" for code, (words, _) in EXITS.items()]
    for code, (_, errors) in EXITS.items():
        for error in errors:
            def fail(error=error):
                raise error("x")
            assert cli._guard(fail) == code, error.__name__
    assert cli._guard(lambda: None) == 0
