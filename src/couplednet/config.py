"""JSON network configs: schema validation and model construction."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .couplers import (
    ControllerKind,
    ControllerModel,
    linear_synthesis,
    nonlinear_integrator,
    paper_psi,
    reconfigured,
    PSI_RANGE,
)
from .errors import ConfigInvalid, CoupledNetError
from .netgraph import DirectedGraph, build_graph
from .plants import (
    AgentKind,
    AgentModel,
    convex_gradient_agent,
    damped_oscillator_agent,
    linear_agent,
)
from .relations import (
    FunctionKind,
    IntegralFunction,
    indicator_zero,
    quadratic,
    scalar_separable,
)

SCHEMA = "couplednet-config/1"


def _mat(spec, what, shape=None, finite=True) -> np.ndarray:
    """spec as a float matrix, of the given shape if any; else ConfigInvalid.

    Entries must be finite; finite=False leaves that check to plants,
    which refuses a non-finite oscillator M or linear A as singular.
    """
    if spec is None:
        raise ConfigInvalid(f"{what}: missing")
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as ex:
        raise ConfigInvalid(f"{what}: not numeric ({ex})") from None
    if arr.ndim != 2:
        raise ConfigInvalid(f"{what}: expected a matrix, got ndim={arr.ndim}")
    if shape is not None and arr.shape != shape:
        raise ConfigInvalid(f"{what}: expected shape {shape}, got {arr.shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise ConfigInvalid(f"{what}: values must be finite")
    return arr


def vector(spec, what, size=None) -> np.ndarray:
    """spec as a flat array of finite floats, of length size if given; else ConfigInvalid."""
    if spec is None:
        raise ConfigInvalid(f"{what}: missing")
    try:
        arr = np.asarray(spec, dtype=float).ravel()
    except (TypeError, ValueError) as ex:
        raise ConfigInvalid(f"{what}: not numeric ({ex})") from None
    if size is not None and arr.size != size:
        raise ConfigInvalid(f"{what}: expected length {size}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ConfigInvalid(f"{what}: values must be finite")
    return arr


def _function_spec(spec, what) -> IntegralFunction:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigInvalid(f"{what}: function spec needs a 'kind' field")
    kind = spec["kind"]
    if kind == "quadratic":
        P = _mat(spec.get("P"), f"{what}.P")
        q = vector(spec["q"], f"{what}.q", P.shape[0]) if "q" in spec else None
        c = vector(spec.get("c", 0.0), f"{what}.c", 1)[0]
        return quadratic(P, q, c)
    if kind == "paper_psi":
        dim = spec.get("dim")
        if not isinstance(dim, int) or dim < 1:
            raise ConfigInvalid(f"{what}.dim: need a positive integer")
        return scalar_separable(paper_psi, dim, PSI_RANGE)
    if kind == "indicator_zero":
        dim = spec.get("dim")
        if not isinstance(dim, int) or dim < 1:
            raise ConfigInvalid(f"{what}.dim: need a positive integer")
        return indicator_zero(dim)
    raise ConfigInvalid(f"{what}.kind: unknown function kind {kind!r}")


def function_to_spec(fn: IntegralFunction) -> dict:
    if fn.kind is FunctionKind.QUADRATIC:
        return {"kind": "quadratic", "P": fn.P.tolist(), "q": fn.q.tolist(),
                "c": float(fn.c)}
    if fn.kind is FunctionKind.SCALAR_SEPARABLE and fn.phi is paper_psi:
        return {"kind": "paper_psi", "dim": fn.dim}
    if fn.kind is FunctionKind.INDICATOR_ZERO:
        return {"kind": "indicator_zero", "dim": fn.dim}
    raise ConfigInvalid("function has no JSON form")


def _agent_spec(spec, what) -> AgentModel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigInvalid(f"{what}: agent spec needs a 'type' field")
    kind = spec["type"]
    leader = spec.get("leader_offset")
    if leader is not None:
        leader = vector(leader, f"{what}.leader_offset")
    if kind == "linear":
        A = _mat(spec.get("A"), f"{what}.A", finite=False)
        B = _mat(spec.get("B"), f"{what}.B")
        C = _mat(spec.get("C"), f"{what}.C")
        T = _mat(spec["T"], f"{what}.T") if "T" in spec else None
        w = vector(spec["w"], f"{what}.w", A.shape[0]) if "w" in spec else None
        return linear_agent(A, B, C, T=T, w=w, leader_offset=leader)
    if kind == "oscillator":
        M = _mat(spec.get("M"), f"{what}.M", finite=False)
        B = _mat(spec.get("B"), f"{what}.B", M.shape)
        psi = _function_spec(spec["damping"], f"{what}.damping") if "damping" in spec else None
        w = vector(spec["w"], f"{what}.w", M.shape[0]) if "w" in spec else None
        anchor = vector(spec["anchor"], f"{what}.anchor", M.shape[0]) if "anchor" in spec else None
        return damped_oscillator_agent(M, B, psi=psi, w=w, anchor=anchor,
                                       leader_offset=leader)
    if kind == "convex_gradient":
        psi = _function_spec(spec.get("psi"), f"{what}.psi")
        Jm = _mat(spec["J"], f"{what}.J") if "J" in spec else None
        Bm = _mat(spec["B"], f"{what}.B") if "B" in spec else None
        Cm = _mat(spec["C"], f"{what}.C") if "C" in spec else None
        w = vector(spec["w"], f"{what}.w", psi.dim) if "w" in spec else None
        return convex_gradient_agent(psi, J=Jm, B=Bm, C=Cm, w=w,
                                     leader_offset=leader)
    raise ConfigInvalid(f"{what}.type: unknown agent type {kind!r}")


def agent_to_spec(agent: AgentModel) -> dict:
    out: dict = {}
    if agent.kind is AgentKind.LINEAR:
        out = {"type": "linear", "A": agent.A.tolist(), "B": agent.B.tolist(),
               "C": agent.C.tolist()}
        if agent.T is not None and np.any(agent.T != 0.0):
            out["T"] = agent.T.tolist()
        if np.any(agent.w != 0.0):
            out["w"] = agent.w.tolist()
    elif agent.kind is AgentKind.DAMPED_OSCILLATOR:
        out = {"type": "oscillator", "M": agent.M.tolist(), "B": agent.B.tolist()}
        if agent.psi is not None:
            out["damping"] = function_to_spec(agent.psi)
        if np.any(agent.w != 0.0):
            out["w"] = agent.w.tolist()
    elif agent.kind is AgentKind.CONVEX_GRADIENT:
        out = {"type": "convex_gradient", "psi": function_to_spec(agent.psi)}
        if agent.J is not None and np.any(agent.J != 0.0):
            out["J"] = agent.J.tolist()
        out["B"] = agent.B.tolist()
        out["C"] = agent.C.tolist()
        if np.any(agent.w != 0.0):
            out["w"] = agent.w.tolist()
    else:
        raise ConfigInvalid("agent has no JSON form")
    if np.any(agent.leader_offset != 0.0):
        out["leader_offset"] = agent.leader_offset.tolist()
    return out


def _controller_spec(spec, what) -> ControllerModel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigInvalid(f"{what}: controller spec needs a 'type' field")
    kind = spec["type"]
    if kind == "integrator":
        pot = _function_spec(spec.get("potential"), f"{what}.potential")
        init = vector(spec["initial_state"], f"{what}.initial_state", pot.dim) \
            if "initial_state" in spec else None
        return nonlinear_integrator(pot, init)
    if kind == "linear_synthesis":
        offset = vector(spec.get("offset"), f"{what}.offset")
        init = vector(spec["initial_state"], f"{what}.initial_state", offset.size) \
            if "initial_state" in spec else None
        return linear_synthesis(offset, init)
    if kind == "reconfigured":
        inner = _controller_spec(spec.get("inner"), f"{what}.inner")
        alpha = vector(spec.get("alpha"), f"{what}.alpha", inner.io_dim)
        beta = vector(spec.get("beta"), f"{what}.beta", inner.io_dim)
        return reconfigured(inner, alpha, beta)
    raise ConfigInvalid(f"{what}.type: unknown controller type {kind!r}")


def controller_to_spec(ctrl: ControllerModel) -> dict:
    if ctrl.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        out = {"type": "integrator", "potential": function_to_spec(ctrl.potential)}
    elif ctrl.kind is ControllerKind.LINEAR_SYNTHESIS:
        out = {"type": "linear_synthesis", "offset": ctrl.offset.tolist()}
    else:
        raise ConfigInvalid("controller has no JSON form")
    if np.any(ctrl.initial_state != 0.0):
        out["initial_state"] = ctrl.initial_state.tolist()
    if ctrl.has_offsets:
        out = {"type": "reconfigured", "inner": out,
               "alpha": ctrl.alpha.tolist(), "beta": ctrl.beta.tolist()}
    return out


@dataclass(frozen=True)
class Objective:
    targets: tuple
    durations: tuple
    leader: Optional[int] = None


@dataclass(frozen=True)
class NetworkConfig:
    """Parsed, validated network description."""

    graph: DirectedGraph
    agents: tuple
    controllers: tuple
    objective: Optional[Objective]
    solver: dict
    simulation: dict
    seed: int
    candidate: Optional[dict] = None
    raw: dict = field(default_factory=dict)


def parse_config(doc: dict) -> NetworkConfig:
    """Validate a config document and build the models it describes.

    Raises ConfigInvalid on any structural or dimensional problem.
    """
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be an object")
    if doc.get("schema") != SCHEMA:
        raise ConfigInvalid(
            f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    gsec = doc.get("graph")
    if not isinstance(gsec, dict):
        raise ConfigInvalid("missing 'graph' section")
    nodes = gsec.get("nodes")
    edges = gsec.get("edges", [])
    if not isinstance(nodes, int) or nodes < 1:
        raise ConfigInvalid("graph.nodes must be a positive integer")
    try:
        edges = [(int(t), int(h)) for t, h in edges]
    except (TypeError, ValueError):
        raise ConfigInvalid("graph.edges must be pairs of node indices") from None
    try:
        graph = build_graph(nodes, edges)
    except CoupledNetError as ex:
        raise ConfigInvalid(f"graph: {ex}") from None

    asec = doc.get("agents")
    if isinstance(asec, dict):
        asec = [asec] * nodes
    if not isinstance(asec, list) or len(asec) != nodes:
        raise ConfigInvalid(f"agents: need {nodes} specs (or one to broadcast)")
    agents = tuple(_agent_spec(sp, f"agents[{i}]") for i, sp in enumerate(asec))
    d = agents[0].io_dim
    if any(a.io_dim != d for a in agents):
        raise ConfigInvalid("agents: io_dims differ")

    csec = doc.get("controllers")
    m = graph.edge_count
    if isinstance(csec, dict):
        csec = [csec] * m
    if csec is None and m == 0:
        csec = []
    if not isinstance(csec, list) or len(csec) != m:
        raise ConfigInvalid(f"controllers: need {m} specs (or one to broadcast)")
    controllers = tuple(
        _controller_spec(sp, f"controllers[{e}]") for e, sp in enumerate(csec))
    if any(c.io_dim != d for c in controllers):
        raise ConfigInvalid("controllers: io_dim differs from agents")

    objective = None
    osec = doc.get("objective")
    if osec is not None:
        if not isinstance(osec, dict):
            raise ConfigInvalid("objective must be an object")
        targets = osec.get("targets")
        if not isinstance(targets, list) or not targets:
            raise ConfigInvalid("objective.targets must be a non-empty list")
        tvecs = tuple(
            vector(t, f"objective.targets[{k}]", nodes * d)
            for k, t in enumerate(targets))
        spec = osec.get("durations", [osec.get("duration", 30.0)] * len(tvecs))
        durations = vector(spec, "objective.durations", len(tvecs))
        if not np.all(durations > 0.0):
            raise ConfigInvalid("objective.durations: values must be positive")
        durations = tuple(float(T) for T in durations)
        leader = osec.get("leader")
        if leader is not None:
            if not isinstance(leader, int) or not (0 <= leader < nodes):
                raise ConfigInvalid("objective.leader must be a node index")
        objective = Objective(targets=tvecs, durations=durations, leader=leader)

    solver = doc.get("solver", {})
    simulation = doc.get("simulation", {})
    if not isinstance(solver, dict) or not isinstance(simulation, dict):
        raise ConfigInvalid("'solver' and 'simulation' must be objects")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigInvalid("seed must be an integer")
    candidate = doc.get("candidate")
    if candidate is not None:
        if not isinstance(candidate, dict):
            raise ConfigInvalid("candidate must be an object")
        for key, size in (("u", nodes * d), ("y", nodes * d),
                          ("zeta", m * d), ("mu", m * d)):
            if key not in candidate:
                raise ConfigInvalid(f"candidate.{key} missing")
            vector(candidate[key], f"candidate.{key}", size)
    return NetworkConfig(graph=graph, agents=agents, controllers=controllers,
                         objective=objective, solver=solver,
                         simulation=simulation, seed=seed,
                         candidate=candidate, raw=doc)


def load_config(path) -> NetworkConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise ConfigInvalid(f"cannot read config: {ex}") from None
    except json.JSONDecodeError as ex:
        raise ConfigInvalid(f"config is not valid JSON: {ex}") from None
    return parse_config(doc)


def emit_config(cfg: NetworkConfig, agents=None, controllers=None,
                extra=None) -> dict:
    """Config document for (possibly modified) models; parses back cleanly."""
    doc = {
        "schema": SCHEMA,
        "seed": cfg.seed,
        "graph": {"nodes": cfg.graph.node_count,
                  "edges": [list(e) for e in cfg.graph.edges]},
        "agents": [agent_to_spec(a) for a in (agents or cfg.agents)],
        "controllers": [controller_to_spec(c)
                        for c in (controllers or cfg.controllers)],
    }
    if cfg.raw.get("solver"):
        doc["solver"] = cfg.raw["solver"]
    if cfg.raw.get("simulation"):
        doc["simulation"] = cfg.raw["simulation"]
    if cfg.raw.get("objective"):
        doc["objective"] = cfg.raw["objective"]
    if extra:
        doc.update(extra)
    return doc
