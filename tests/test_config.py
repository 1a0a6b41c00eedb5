import json
import re

import numpy as np
import pytest

from couplednet.config import (SCHEMA, agent_to_spec, controller_to_spec, emit_config,
                               function_to_spec, load_config, parse_config)
from couplednet.couplers import ControllerKind, linear_synthesis, reconfigured
from couplednet.errors import ConfigInvalid
from couplednet.plants import AgentKind, convex_gradient_agent
from couplednet.relations import indicator_zero, quadratic


def base_doc():
    return {
        "schema": SCHEMA,
        "graph": {"nodes": 2, "edges": [[0, 1]]},
        "agents": [
            {"type": "linear", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
            {"type": "linear", "A": [[-2.0]], "B": [[1.0]], "C": [[1.0]],
             "w": [6.0]},
        ],
        "controllers": [{"type": "linear_synthesis", "offset": [1.0]}],
    }


def full_doc():
    return {
        "schema": SCHEMA,
        "seed": 3,
        "graph": {"nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        "agents": [
            {"type": "oscillator",
             "M": [[2.0, 0.0], [0.0, 1.0]],
             "B": [[1.0, 0.0], [0.0, 1.0]],
             "damping": {"kind": "quadratic",
                         "P": [[3.0, 0.0], [0.0, 3.0]]},
             "anchor": [0.5, -0.5]},
            {"type": "linear",
             "A": [[-1.0, 0.0], [0.0, -1.0]],
             "B": [[1.0, 0.0], [0.0, 1.0]],
             "C": [[1.0, 0.0], [0.0, 1.0]],
             "w": [0.1, 0.2],
             "leader_offset": [0.3, 0.0]},
            {"type": "convex_gradient",
             "psi": {"kind": "quadratic", "P": [[1.0, 0.0], [0.0, 1.0]],
                     "q": [0.1, -0.1]},
             "J": [[0.0, 1.0], [-1.0, 0.0]]},
        ],
        "controllers": [
            {"type": "integrator",
             "potential": {"kind": "paper_psi", "dim": 2}},
            {"type": "linear_synthesis", "offset": [0.1, -0.2],
             "initial_state": [0.5, 0.0]},
            {"type": "reconfigured",
             "inner": {"type": "integrator",
                       "potential": {"kind": "quadratic",
                                     "P": [[1.0, 0.0], [0.0, 2.0]]}},
             "alpha": [0.1, 0.0], "beta": [0.0, -0.1]},
        ],
        "objective": {"targets": [[0.0] * 6, [1.0] * 6],
                      "durations": [10.0, 20.0], "leader": 0},
        "solver": {"tol": 1e-10},
        "simulation": {"method": "rk45"},
        "candidate": {"u": [0.0] * 6, "y": [0.0] * 6,
                      "zeta": [0.0] * 6, "mu": [0.0] * 6},
    }


def agents_equal(a, b):
    if a.kind is not b.kind:
        return False
    for name in ("A", "B", "C", "T", "M", "w", "leader_offset"):
        va, vb = getattr(a, name, None), getattr(b, name, None)
        if (va is None) != (vb is None):
            return False
        if va is not None and not np.allclose(va, vb):
            return False
    return True


def test_parse_base_doc():
    cfg = parse_config(base_doc())
    assert cfg.graph.node_count == 2 and cfg.graph.edge_count == 1
    assert cfg.agents[0].kind is AgentKind.LINEAR
    assert cfg.agents[1].w[0] == 6.0
    assert cfg.controllers[0].kind is ControllerKind.LINEAR_SYNTHESIS
    assert cfg.seed == 0 and cfg.objective is None


def test_parse_full_doc_models():
    cfg = parse_config(full_doc())
    kinds = [a.kind for a in cfg.agents]
    assert kinds == [AgentKind.DAMPED_OSCILLATOR, AgentKind.LINEAR,
                     AgentKind.CONVEX_GRADIENT]
    # anchor folds into the constant term: w = M^T anchor
    assert np.allclose(cfg.agents[0].w, [1.0, -0.5])
    assert np.allclose(cfg.agents[1].leader_offset, [0.3, 0.0])
    ckinds = [c.kind for c in cfg.controllers]
    assert ckinds == [ControllerKind.NONLINEAR_INTEGRATOR,
                      ControllerKind.LINEAR_SYNTHESIS,
                      ControllerKind.NONLINEAR_INTEGRATOR]
    assert np.array_equal(cfg.controllers[2].alpha, [0.1, 0.0])
    assert np.array_equal(cfg.controllers[2].beta, [0.0, -0.1])
    assert np.allclose(cfg.controllers[1].initial_state, [0.5, 0.0])
    assert cfg.objective.durations == (10.0, 20.0)
    assert cfg.objective.leader == 0
    assert cfg.candidate is not None and cfg.seed == 3


def test_emit_parse_round_trip():
    cfg = parse_config(full_doc())
    doc2 = json.loads(json.dumps(emit_config(cfg)))
    cfg2 = parse_config(doc2)
    assert cfg2.graph.edges == cfg.graph.edges
    assert all(agents_equal(a, b) for a, b in zip(cfg.agents, cfg2.agents))
    for c, c2 in zip(cfg.controllers, cfg2.controllers):
        assert c.kind is c2.kind
    assert cfg2.objective.targets[1][0] == 1.0
    assert cfg2.seed == cfg.seed


def test_emit_with_replacement_controllers():
    cfg = parse_config(base_doc())
    doc = emit_config(cfg, controllers=[linear_synthesis([2.5])])
    assert doc["controllers"][0]["offset"] == [2.5]


def test_reconfigured_controller_spec_round_trip():
    ctrl = reconfigured(linear_synthesis([2.5], initial_state=[0.5]), [0.3], [-0.4])
    spec = controller_to_spec(ctrl)
    assert spec["type"] == "reconfigured"
    doc = base_doc()
    doc["controllers"] = [json.loads(json.dumps(spec))]
    back = parse_config(doc).controllers[0]
    assert back.kind is ControllerKind.LINEAR_SYNTHESIS
    for name in ("offset", "initial_state", "alpha", "beta"):
        assert np.array_equal(getattr(back, name), getattr(ctrl, name))
    assert "alpha" not in controller_to_spec(linear_synthesis([2.5]))


def test_emit_extra_section():
    cfg = parse_config(base_doc())
    doc = emit_config(cfg, extra={"candidate": {
        "u": [0.0, 0.0], "y": [0.0, 0.0], "zeta": [0.0], "mu": [0.0]}})
    assert parse_config(doc).candidate is not None


def test_shipped_config_parses(tmp_path):
    cfg = load_config("configs/formation.json")
    assert cfg.graph.node_count == 4 and cfg.graph.edge_count == 4
    assert all(a.kind is AgentKind.DAMPED_OSCILLATOR for a in cfg.agents)
    assert len(cfg.objective.targets) == 5
    doc2 = emit_config(cfg)
    cfg2 = parse_config(doc2)
    assert all(agents_equal(a, b) for a, b in zip(cfg.agents, cfg2.agents))


def test_agent_broadcast():
    doc = base_doc()
    doc["agents"] = {"type": "linear", "A": [[-1.0]], "B": [[1.0]],
                     "C": [[1.0]]}
    cfg = parse_config(doc)
    assert len(cfg.agents) == 2


def test_default_duration_applies():
    doc = base_doc()
    doc["objective"] = {"targets": [[1.0, 1.0]]}
    cfg = parse_config(doc)
    assert cfg.objective.durations == (30.0,)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(schema="other/9"),
    lambda d: d.pop("graph"),
    lambda d: d["graph"].update(nodes=0),
    lambda d: d["graph"].update(edges=[[0]]),
    lambda d: d["graph"].update(nodes=3),
    lambda d: d.update(agents=d["agents"][:1]),
    lambda d: d.update(agents=[{"type": "alien"}] * 2),
    lambda d: d["agents"][0].update(A="x"),
    lambda d: d.update(controllers=[{"type": "linear_synthesis",
                                     "offset": [1.0, 2.0]}]),
    lambda d: d.update(objective={"targets": []}),
    lambda d: d.update(objective={"targets": [[1.0]]}),
    lambda d: d.update(objective={"targets": [[1.0, 1.0]],
                                  "durations": [1.0, 2.0]}),
    lambda d: d.update(objective={"targets": [[1.0, 1.0]],
                                  "durations": [-1.0]}),
    lambda d: d.update(objective={"targets": [[1.0, 1.0]], "leader": 5}),
    lambda d: d.update(seed="seven"),
    lambda d: d.update(candidate={"u": [0.0, 0.0]}),
    lambda d: d.update(candidate={"u": [0.0, 0.0], "y": [0.0, 0.0],
                                  "zeta": [0.0, 0.0], "mu": [0.0]}),
    lambda d: d.update(controllers=[{"type": "integrator", "potential": {
        "kind": "quadratic", "P": [[1.0]], "c": "abc"}}]),
    lambda d: d.update(controllers=[{"type": "integrator", "potential": {
        "kind": "quadratic", "P": [[1.0]], "c": [1, 2]}}]),
    lambda d: d["agents"][1].update(leader_offset=[0.0, 1.0, 2.0]),
])
def test_invalid_documents_rejected(mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigInvalid):
        parse_config(doc)


def test_unknown_potential_kind_rejected():
    doc = base_doc()
    doc["controllers"] = [{"type": "integrator",
                           "potential": {"kind": "cubic", "dim": 1}}]
    with pytest.raises(ConfigInvalid):
        parse_config(doc)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(tmp_path / "absent.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(p)


def test_load_config_round_trips_file(tmp_path):
    p = tmp_path / "net.json"
    p.write_text(json.dumps(full_doc()))
    cfg = load_config(p)
    assert cfg.graph.node_count == 3


def test_model_errors_name_the_agent():
    doc = base_doc()
    doc["agents"][1]["leader_offset"] = [0.0, 1.0, 2.0]
    with pytest.raises(ConfigInvalid, match=r"agents\[1\]\.leader_offset: expected length 1"):
        parse_config(doc)


@pytest.mark.parametrize("where", ["integrator", "damping", "psi"])
def test_indicator_zero_is_no_config_function(where):
    indicator = {"kind": "indicator_zero", "dim": 2}
    doc = full_doc()
    if where == "integrator":
        doc["controllers"][0]["potential"], field = indicator, "controllers[0].potential"
    elif where == "damping":
        doc["agents"][0]["damping"], field = indicator, "agents[0].damping"
    else:
        doc["agents"][2]["psi"], field = indicator, "agents[2].psi"
    with pytest.raises(ConfigInvalid, match=rf"{re.escape(field)}\.kind: 'indicator_zero'"):
        parse_config(doc)


def test_indicator_zero_has_no_json_form():
    with pytest.raises(ConfigInvalid):
        function_to_spec(indicator_zero(2))


def test_rho_has_no_json_form():
    # the config has no rho field: a spec without it would drop the feedthrough
    with pytest.raises(ConfigInvalid, match="agent has no JSON form: rho"):
        agent_to_spec(convex_gradient_agent(quadratic(np.eye(2)), rho=0.5 * np.eye(2)))
    spec = agent_to_spec(convex_gradient_agent(quadratic(np.eye(2)), rho=np.zeros((2, 2))))
    assert spec["type"] == "convex_gradient" and "rho" not in spec
