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
from .errors import ConfigInvalid, CoupledNetError, DimensionMismatch, InvalidModel
from .netgraph import DirectedGraph, build_graph
from .plants import (
    AgentKind,
    AgentModel,
    convex_gradient_agents,
    linear_agents,
    oscillator_agents,
)
from .relations import (
    FunctionKind,
    IntegralFunction,
    scalar_separable,
    stacked_quadratics,
)

SCHEMA = "couplednet-config/1"


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


class _Ragged(Exception):
    """The specs of a group do not stack: parse them one at a time."""


def _parse_groups(specs, names, key, parse) -> list:
    """The models of specs, parsed by groups of one key.

    A spec equal to the one before it is parsed once, as is a broadcast
    spec: its model is the earlier one. parse(group, group_names) makes
    the models of a group; when its specs do not stack (_Ragged), each is
    parsed as a group of its own, so the message names the spec at fault.
    """
    out = [None] * len(specs)
    groups = {}
    for i, spec in enumerate(specs):
        if i == 0 or spec != specs[i - 1]:
            groups.setdefault(key(spec, names[i]), []).append(i)
    for idx in groups.values():
        try:
            models = parse([specs[i] for i in idx], [names[i] for i in idx])
        except _Ragged:
            models = [parse([specs[i]], [names[i]])[0] for i in idx]
        for i, model in zip(idx, models):
            out[i] = model
    for i, model in enumerate(out):
        if model is None:
            out[i] = out[i - 1]
    return out


def _field(specs, names, key, ndim, default=None, finite=True) -> np.ndarray:
    """Field key of each spec stacked as one float array: (k, rows, cols)
    for ndim 2, (k, size) for ndim 1 (any shape, flattened), absent ones
    set to default. Raises ConfigInvalid naming the first spec at fault,
    or _Ragged when several specs do not stack."""
    values = [spec.get(key, default) for spec in specs]
    for name, v in zip(names, values):
        if v is None:
            raise ConfigInvalid(f"{name}.{key}: missing")
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as ex:
        if len(specs) > 1:
            raise _Ragged from None
        raise ConfigInvalid(f"{names[0]}.{key}: not numeric ({ex})") from None
    if ndim == 1:
        arr = arr.reshape(len(specs), -1)
    elif arr.ndim != 3:
        if len(specs) > 1:
            raise _Ragged
        raise ConfigInvalid(f"{names[0]}.{key}: expected a matrix, got ndim={arr.ndim - 1}")
    if finite:
        ok = np.isfinite(arr).reshape(len(specs), -1).all(axis=1)
        if not ok.all():
            raise ConfigInvalid(f"{names[int(np.argmin(ok))]}.{key}: values must be finite")
    return arr


def _sized(arr, names, key, size) -> np.ndarray:
    """arr, a (k, n) field stack, once n is size; else ConfigInvalid."""
    if arr.shape[1] != size:
        raise ConfigInvalid(f"{names[0]}.{key}: expected length {size}, got {arr.shape[1]}")
    return arr


def _optional(specs, names, key, ndim, size=None, fill=None):
    """_field of an optional field: None when no spec has it. The specs
    without it take fill, or do not stack when fill is None. A vector's
    length must be size."""
    present = [key in spec for spec in specs]
    if not any(present):
        return None
    if fill is None and not all(present):
        raise _Ragged
    arr = _field(specs, names, key, ndim, default=fill)
    return arr if size is None else _sized(arr, names, key, size)


def _zeros(*shape) -> list:
    return np.zeros(shape).tolist()


def _dim_of(spec):
    """The rows of a matrix spec, or None: a cheap grouping key."""
    return len(spec) if isinstance(spec, list) else None


def _functions(specs, names) -> list:
    """The IntegralFunctions of function specs, by groups of one kind:
    quadratics from stacked P, q and c, paper_psi one shared function
    per dimension. Names end in the field, e.g. agents[2].damping."""
    for spec, name in zip(specs, names):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigInvalid(f"{name}: function spec needs a 'kind' field")
        if spec["kind"] == "indicator_zero":
            raise ConfigInvalid(f"{name}.kind: 'indicator_zero' is not a config function: "
                                "its gradient exists only at 0")
        if spec["kind"] not in ("quadratic", "paper_psi"):
            raise ConfigInvalid(f"{name}.kind: unknown function kind {spec['kind']!r}")
    return _parse_groups(specs, names, lambda spec, _: (spec["kind"], _dim_of(spec.get("P"))),
                         _function_group)


def _function_group(specs, names) -> list:
    if specs[0]["kind"] == "paper_psi":
        fns = {}
        for spec, name in zip(specs, names):
            dim = spec.get("dim")
            if not isinstance(dim, int) or dim < 1:
                raise ConfigInvalid(f"{name}.dim: need a positive integer")
            if dim not in fns:
                fns[dim] = scalar_separable(paper_psi, dim, PSI_RANGE)
        return [fns[spec["dim"]] for spec in specs]
    P = _field(specs, names, "P", 2)
    if P.shape[1] != P.shape[2]:
        raise ConfigInvalid(f"{names[0]}.P: expected a square matrix, got {P.shape[1:]}")
    q = _optional(specs, names, "q", 1, P.shape[1])
    q = np.zeros(P.shape[:2]) if q is None else q
    c = _sized(_field(specs, names, "c", 1, default=0.0), names, "c", 1)
    return stacked_quadratics(P, q, c[:, 0]).children


def function_to_spec(fn: IntegralFunction) -> dict:
    if fn.kind is FunctionKind.QUADRATIC:
        return {"kind": "quadratic", "P": fn.P.tolist(), "q": fn.q.tolist(),
                "c": float(fn.c)}
    if fn.kind is FunctionKind.SCALAR_SEPARABLE and fn.phi is paper_psi:
        return {"kind": "paper_psi", "dim": fn.dim}
    raise ConfigInvalid("function has no JSON form")


def _agents(specs, names) -> list:
    """The AgentModels of agent specs, by groups of one type and size."""
    rows = {"linear": "A", "oscillator": "M"}

    def key(spec, name):
        if not isinstance(spec, dict) or "type" not in spec:
            raise ConfigInvalid(f"{name}: agent spec needs a 'type' field")
        kind = spec["type"]
        if not isinstance(kind, str) or kind not in _AGENT_TYPES:
            raise ConfigInvalid(f"{name}.type: unknown agent type {kind!r}")
        return kind, _dim_of(spec.get(rows.get(kind)))

    def parse(group, group_names):
        try:
            return _AGENT_TYPES[group[0]["type"]](group, group_names)
        except (DimensionMismatch, InvalidModel) as ex:
            raise ConfigInvalid(str(ex)) from None

    return _parse_groups(specs, names, key, parse)


def _leader(specs, names, d):
    return _optional(specs, names, "leader_offset", 1, d, _zeros(d))


def _input_matrix(B, names, n: int) -> np.ndarray:
    """A (k, rows, cols) stack of input matrices as (k, n, d): each is
    read as n rows, as the agent constructors read it."""
    if B.shape[1] * B.shape[2] % max(n, 1):
        raise ConfigInvalid(f"{names[0]}.B: expected {n} rows, got shape {B.shape[1:]}")
    return B.reshape(len(B), n, -1)


def _linear_group(specs, names):
    A = _field(specs, names, "A", 2, finite=False)
    n = A.shape[1]
    B = _input_matrix(_field(specs, names, "B", 2), names, n)
    d = B.shape[2]
    return linear_agents(A, B, _field(specs, names, "C", 2),
                         _optional(specs, names, "T", 2, fill=_zeros(d, d)),
                         _optional(specs, names, "w", 1, n, _zeros(n)), _leader(specs, names, d),
                         names=names)


def _oscillator_group(specs, names):
    M = _field(specs, names, "M", 2, finite=False)
    d = M.shape[1]
    B = _field(specs, names, "B", 2)
    if B.shape[1:] != M.shape[1:]:
        raise ConfigInvalid(f"{names[0]}.B: expected shape {M.shape[1:]}, got {B.shape[1:]}")
    psi = None
    if any("damping" in spec for spec in specs):
        psi = [None] * len(specs)
        damped = [j for j, spec in enumerate(specs) if "damping" in spec]
        for j, fn in zip(damped, _functions([specs[j]["damping"] for j in damped],
                                            [f"{names[j]}.damping" for j in damped])):
            psi[j] = fn
    return oscillator_agents(M, B, psi, _optional(specs, names, "w", 1, d, _zeros(d)),
                             _optional(specs, names, "anchor", 1, d),
                             _leader(specs, names, d), names=names)


def _gradient_group(specs, names):
    psi = _functions([spec.get("psi") for spec in specs], [f"{name}.psi" for name in names])
    n = psi[0].dim
    if any(fn.dim != n for fn in psi):
        raise _Ragged
    B = _optional(specs, names, "B", 2)
    B = None if B is None else _input_matrix(B, names, n)
    d = n if B is None else B.shape[2]
    return convex_gradient_agents(
        psi, _optional(specs, names, "J", 2, fill=_zeros(n, n)), B,
        _optional(specs, names, "C", 2), w=_optional(specs, names, "w", 1, n, _zeros(n)),
        leader_offset=_leader(specs, names, d), names=names)


_AGENT_TYPES = {"linear": _linear_group, "oscillator": _oscillator_group,
                "convex_gradient": _gradient_group}


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
        if np.any(agent.rho):
            raise ConfigInvalid("agent has no JSON form: rho")
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


def _controllers(specs, names) -> list:
    """The ControllerModels of controller specs, by groups of one type."""
    def key(spec, name):
        if not isinstance(spec, dict) or "type" not in spec:
            raise ConfigInvalid(f"{name}: controller spec needs a 'type' field")
        if not isinstance(spec["type"], str) or spec["type"] not in _CONTROLLER_TYPES:
            raise ConfigInvalid(f"{name}.type: unknown controller type {spec['type']!r}")
        return spec["type"]

    return _parse_groups(specs, names, key,
                         lambda group, group_names: _CONTROLLER_TYPES[group[0]["type"]](
                             group, group_names))


def _initial(specs, names, size):
    init = _optional(specs, names, "initial_state", 1, size, _zeros(size))
    return [None] * len(specs) if init is None else init


def _integrator_group(specs, names):
    pots = _functions([spec.get("potential") for spec in specs],
                      [f"{name}.potential" for name in names])
    if any(pot.dim != pots[0].dim for pot in pots):
        raise _Ragged
    return [nonlinear_integrator(pot, init)
            for pot, init in zip(pots, _initial(specs, names, pots[0].dim))]


def _synthesis_group(specs, names):
    offset = _field(specs, names, "offset", 1)
    return [linear_synthesis(off, init)
            for off, init in zip(offset, _initial(specs, names, offset.shape[1]))]


def _reconfigured_group(specs, names):
    inner = _controllers([spec.get("inner") for spec in specs], [f"{name}.inner" for name in names])
    d = inner[0].io_dim
    if any(c.io_dim != d for c in inner):
        raise _Ragged
    alpha = _sized(_field(specs, names, "alpha", 1), names, "alpha", d)
    beta = _sized(_field(specs, names, "beta", 1), names, "beta", d)
    return [reconfigured(c, a, b) for c, a, b in zip(inner, alpha, beta)]


_CONTROLLER_TYPES = {"integrator": _integrator_group, "linear_synthesis": _synthesis_group,
                     "reconfigured": _reconfigured_group}


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
    agents = tuple(_agents(asec, [f"agents[{i}]" for i in range(nodes)]))
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
    controllers = tuple(_controllers(csec, [f"controllers[{e}]" for e in range(m)]))
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
