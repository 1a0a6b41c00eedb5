"""Command-line front-end: predict, simulate, synthesize, check-cm, verify."""
from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import config as cfgmod
from . import couplers, plants
from .errors import (
    ConfigInvalid,
    CoupledNetError,
    DimensionMismatch,
    EmptyInverse,
    EmptySelection,
    Infeasible,
    InfiniteValue,
    NoConvergence,
    NonFiniteState,
    NotForcible,
    OutsideDomain,
    RelationNotEvaluable,
    SingularMatrix,
    StepUnderflow,
    Unbounded,
    UnsupportedKind,
)
from .netopt import (
    SolveOptions,
    assemble,
    duality_gap,
    ofp_objective,
    opp_objective,
    recover_certificate,
    solve_opp,
    verify_steady_state,
)
from .simulate import (
    WINDOW,
    IntegrateOptions,
    _record_grid,
    _window_start,
    closed_loop,
    default_initial_state,
    export_csv,
    integrate_schedule,
)
from .synthesis import (
    apply_leader,
    check_uniqueness_conditions,
    leader_input,
    reconfiguration_offsets,
    synthesize_linear,
    wrap_reconfigured,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MATH = 2
EXIT_NUMERIC = 3
EXIT_UNSUPPORTED = 4  # a valid config that the theory does not cover

_CERT_TOL = 1e-6  # residual bound a predicted steady state must meet

_MATH_ERRORS = (Infeasible, NotForcible, EmptyInverse, EmptySelection,
                RelationNotEvaluable, Unbounded, OutsideDomain)
_NUMERIC_ERRORS = (NoConvergence, StepUnderflow, NonFiniteState,
                   SingularMatrix, InfiniteValue)


# each error's exit code and stderr prefix: the first row that holds it
_EXITS = (
    ((ConfigInvalid,), EXIT_CONFIG, "config error"),
    (_MATH_ERRORS, EXIT_MATH, "infeasible"),
    (_NUMERIC_ERRORS, EXIT_NUMERIC, "numerical failure"),
    ((UnsupportedKind,), EXIT_UNSUPPORTED, "outside the theory"),
    ((CoupledNetError,), EXIT_CONFIG, "error"),
)


def _refusal(ex: CoupledNetError):
    _, code, prefix = next(row for row in _EXITS if isinstance(ex, row[0]))
    named = "" if isinstance(ex, ConfigInvalid) else f"{type(ex).__name__}: "
    return code, f"{prefix}: {named}{ex}"


def _guard(fn) -> int:
    try:
        fn()
    except CoupledNetError as ex:
        code, line = _refusal(ex)
        click.echo(line, err=True)
        return code
    return EXIT_OK


def _outdir(out) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(_jsonable(doc), "") + "\n")


def _json_text(obj, indent: str) -> str:
    """json.dumps(obj, indent=2) nested at indent, the same text.

    A list of numbers is one json.dumps call without indent, which the
    C encoder serves, its ", " separators (which no number contains)
    then broken into lines, so certificates are not written a value at
    a time by the pure-Python indenting encoder.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        return ("{\n" + ",\n".join(f"{inner}{json.dumps(key)}: {_json_text(value, inner)}"
                                   for key, value in obj.items()) + "\n" + indent + "}")
    if isinstance(obj, list) and obj:
        if all(type(v) in (float, int) for v in obj):
            items = inner + json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
        else:
            items = ",\n".join(inner + _json_text(v, inner) for v in obj)
        return "[\n" + items + "\n" + indent + "]"
    return json.dumps(obj)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{x:.6g}" for x in np.asarray(v).ravel()) + ")"


def _solve_options(cfg) -> SolveOptions:
    try:
        tol = float(cfg.solver.get("tol", SolveOptions.tol))
    except (TypeError, ValueError) as ex:
        raise ConfigInvalid(f"solver: tol: {ex}") from None
    if not 0.0 < tol < math.inf:
        raise ConfigInvalid(f"solver: tol: must be finite and positive, got {tol}")
    return SolveOptions(tol=tol)


def _integrate_options(cfg):
    """(options, conv_tol, segment durations, initial state or None), checked up front.

    The horizon, the one duration, is read only without an objective, whose
    schedule sets the durations. A refusal names its key: `simulation: <key>: <reason>`.
    """
    sec = cfg.simulation

    def number(key, default=None):
        try:
            return float(sec.get(key, default))
        except (TypeError, ValueError) as ex:
            raise ConfigInvalid(f"simulation: {key}: {ex}") from None

    # adaptive Dormand-Prince is the only scheme; configs may still name it
    if sec.get("method", "rk45") != "rk45":
        raise ConfigInvalid(
            f"simulation: method: unknown integration method {sec['method']!r}")
    kw = {"tol": number("tol")} if "tol" in sec else {}
    if sec.get("record_every") is not None:
        kw["record_every"] = number("record_every")
    try:
        opts = IntegrateOptions(**kw)
    except DimensionMismatch as ex:
        raise ConfigInvalid(f"simulation: {ex}") from None
    conv_tol = number("conv_tol", 1e-6)
    if not 0.0 < conv_tol < math.inf:
        raise ConfigInvalid(f"simulation: conv_tol: must be finite and positive, got {conv_tol}")
    durations = (number("horizon", 0.0),) if cfg.objective is None else cfg.objective.durations
    if not 0.0 < durations[0] < math.inf:  # a horizon: the config checked the schedule's
        raise ConfigInvalid(f"simulation: horizon: must be finite and positive, got {durations[0]}")
    t0 = 0.0  # on the record grids of integrate_schedule
    for T in durations:
        times = _record_grid(t0, T, opts.record_every)
        if times.shape[0] - _window_start(times, WINDOW * T) < 2:
            raise ConfigInvalid("simulation: record_every: a window holds fewer than two records")
        t0 += T
    init = sec.get("initial_state")
    if init is not None:
        init = cfgmod.vector(init, "simulation: initial_state")
    return opts, conv_tol, durations, init


def _certify(cfg):
    """(certificate, duality gap, solve trace) of cfg's network, or predict's refusal."""
    problem = assemble(cfg.graph, cfg.agents, cfg.controllers)
    y, zeta, trace = solve_opp(problem, opts=_solve_options(cfg))
    cert = recover_certificate(problem, y, zeta)
    if not cert.valid(_CERT_TOL):
        # e.g. a saturating integrator asked for an effort outside
        # its output range: the optimum is no steady state
        raise Infeasible(
            "optimum fails its certificate: residuals "
            f"consistency {cert.residual_consistency:.3e}, "
            f"relations {cert.residual_relations:.3e}, "
            f"inclusion {cert.residual_inclusion:.3e}")
    unreachable = couplers.unreachable_efforts(cfg.controllers, cert.mu, _CERT_TOL)
    if unreachable.size:
        e = int(unreachable[0])
        raise Infeasible(f"controllers[{e}]: the certified effort "
                         f"{_fmt_vec(cert.mu.reshape(-1, cfg.agents[0].io_dim)[e])} is "
                         "outside its potential's output range q + beta + range(P)")
    gap = duality_gap(problem, cert.u, cert.mu, cert.y, cert.zeta)
    scale = 1.0 + abs(opp_objective(problem, cert.y)) + abs(ofp_objective(problem, cert.mu))
    if not abs(gap) <= 1e-8 * scale:
        raise Infeasible(f"duality gap {gap:.3e} exceeds 1e-8 * {scale:.3e}")
    return cert, gap, trace


@click.group()
def cli():
    """Steady-state analysis and simulation of diffusively coupled networks."""


@cli.command("predict")
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Network config (JSON).")
@click.option("--out", default=".", type=click.Path(), help="Output directory.")
def cmd_predict(config_path, out):
    """Solve for the steady state and write the certificate.

    An optimum whose certificate or duality gap fails is refused (exit 2),
    as is an effort an integrator's quadratic potential cannot emit.
    """

    def run():
        cert, gap, trace = _certify(cfgmod.load_config(config_path))
        outdir = _outdir(out)
        trace.write_csv(os.path.join(outdir, "opp_trace.csv"))
        _write_json(os.path.join(outdir, "certificate.json"), {
            "u": cert.u, "y": cert.y, "zeta": cert.zeta, "mu": cert.mu,
            "residual_consistency": cert.residual_consistency,
            "residual_relations": cert.residual_relations,
            "residual_inclusion": cert.residual_inclusion,
            "duality_gap": gap,
            "method": trace.method, "iterations": trace.iterations,
        })
        click.echo(f"y = {_fmt_vec(cert.y)}")
        click.echo(f"mu = {_fmt_vec(cert.mu)}")
        click.echo(f"duality_gap = {gap:.3e}")

    return _guard(run)


def _plan_segments(cfg):
    """Per-target systems for the objective schedule.

    For each target: inject the leader input when a leader is declared,
    then wrap the base controllers with the reconfiguration offsets
    computed against the segment plant's natural steady state. Returns
    (system, duration, certificate, target) tuples.
    """
    obj = cfg.objective
    d = cfg.agents[0].io_dim
    solve_opts = _solve_options(cfg)
    base_problem = assemble(cfg.graph, cfg.agents, cfg.controllers)
    segments = []
    for y_star, T in zip(obj.targets, obj.durations):
        agents_k = cfg.agents
        problem_k = base_problem
        if obj.leader is not None:
            z = leader_input(base_problem, y_star, obj.leader)
            agents_k = apply_leader(cfg.agents, obj.leader, z)
            problem_k = assemble(cfg.graph, agents_k, cfg.controllers)
        y0, _, _ = solve_opp(problem_k, opts=solve_opts)
        alpha, beta = reconfiguration_offsets(problem_k, y0, y_star)
        ctrls_k = wrap_reconfigured(cfg.controllers, alpha, beta, d)
        problem_w = assemble(cfg.graph, agents_k, ctrls_k)
        zeta_star = problem_w.op.rmatvec(y_star)
        cert = recover_certificate(problem_w, y_star, zeta_star)
        system = closed_loop(cfg.graph, agents_k, ctrls_k)
        segments.append((system, T, cert, y_star))
    return segments


@cli.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", default=".", type=click.Path())
def cmd_simulate(config_path, out):
    """Integrate the closed loop and report convergence per segment."""

    def run():
        cfg = cfgmod.load_config(config_path)
        opts, conv_tol, durations, init = _integrate_options(cfg)
        _solve_options(cfg)  # refused here, before any planning
        summary = []
        if cfg.objective is not None:
            plan = _plan_segments(cfg)
        else:
            # one segment with predict's certificate; a network predict
            # refuses with exit 2 or 4 is simulated without one
            try:
                cert = _certify(cfg)[0]
            except CoupledNetError as ex:
                code, line = _refusal(ex)
                if code not in (EXIT_MATH, EXIT_UNSUPPORTED):
                    raise
                cert = None
                summary.append(f"certificate refused: {line} (predict exits {code})")
            plan = [(closed_loop(cfg.graph, cfg.agents, cfg.controllers), *durations, cert, None)]
        init = default_initial_state(plan[0][0]) if init is None else init
        outdir = _outdir(out)
        trajs = integrate_schedule([(system, T, cert) for system, T, cert, _ in plan], init,
                                   opts, conv_tol)
        for k, ((_, _, _, y_star), traj) in enumerate(zip(plan, trajs)):
            conv = traj.convergence
            line = f"segment {k}: converged = {conv.converged}"
            if conv.proof:
                line += f", proof = {conv.proof}"
            if conv.converged:
                line += f", y_ss = {_fmt_vec(conv.y_ss)}"
                if y_star is not None:
                    line += f", target_err_inf = {float(np.max(np.abs(conv.y_ss - y_star))):.3e}"
                rep = traj.prediction  # None without a certificate; falsy when it fails
                line += f", prediction_pass = {None if rep is None else bool(rep)}"
            summary.append(line + f", t_stop = {traj.metadata['t_stop']:.6g}")
        export_csv(trajs, os.path.join(outdir, "trajectory.csv"))
        text = "\n".join(summary)
        with open(os.path.join(outdir, "summary.txt"), "w") as fh:
            fh.write(text + "\n")
        click.echo(text)

    return _guard(run)


@cli.command("synthesize")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", default=".", type=click.Path())
@click.option("--target", default=None, type=str,
              help="Desired steady output y* as a JSON array "
                   "(defaults to the first objective target).")
@click.option("--mode", default="absolute",
              type=click.Choice(["absolute", "relative"]))
@click.option("--leader", default=None, type=int,
              help="Leading node index for plant augmentation.")
def cmd_synthesize(config_path, out, target, mode, leader):
    """Design linear controllers (and leader input) for a target output."""

    def run():
        cfg = cfgmod.load_config(config_path)
        d = cfg.agents[0].io_dim
        n = cfg.graph.node_count
        if target is not None:
            try:
                spec = json.loads(target)
            except json.JSONDecodeError as ex:
                raise ConfigInvalid(f"--target: {ex}") from None
            y_star = cfgmod.vector(spec, "--target", n * d)
        elif cfg.objective is not None:
            y_star = np.asarray(cfg.objective.targets[0])
        else:
            raise ConfigInvalid("no --target given and no objective section")
        if leader is not None and not (0 <= leader < n):
            raise ConfigInvalid(f"--leader must be a node index in [0, {n})")
        problem = assemble(cfg.graph, cfg.agents, cfg.controllers)
        result = synthesize_linear(problem, y_star, mode=mode, leader=leader)
        agents_out = cfg.agents
        if leader is not None and result.leader_input is not None:
            agents_out = apply_leader(cfg.agents, leader, result.leader_input)
        uniq = check_uniqueness_conditions(
            assemble(cfg.graph, agents_out, result.controllers),
            result.y_target)
        patch = cfgmod.emit_config(cfg, agents=agents_out,
                                   controllers=result.controllers)
        patch.pop("objective", None)
        outdir = _outdir(out)
        _write_json(os.path.join(outdir, "patch.json"), patch)
        lines = [
            f"mode = {result.mode}",
            f"forcible = {result.forcibility.forcible} "
            f"(residual {result.forcibility.residual:.3e})",
            f"steady-state equation holds = {uniq.stationarity_residual <= 1e-8}",
            f"edge potentials strictly convex = {uniq.outer_strict}",
            f"node potential sum strictly convex near target = {uniq.inner_strict}",
            f"stationarity residual = {uniq.stationarity_residual:.3e}",
            f"y_target = {_fmt_vec(result.y_target)}",
            f"xi = {_fmt_vec(result.xi)}",
        ]
        if result.leader_input is not None:
            lines.append(f"leader = {leader}, z = {_fmt_vec(result.leader_input)}")
        text = "\n".join(lines)
        with open(os.path.join(outdir, "synthesis_report.txt"), "w") as fh:
            fh.write(text + "\n")
        click.echo(text)

    return _guard(run)


@cli.command("check-cm")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", default=".", type=click.Path())
def cmd_check_cm(config_path, out):
    """Classify every agent and controller for cyclic monotonicity."""

    def run():
        cfg = cfgmod.load_config(config_path)
        agent_rows = [{"verdict": verdict, "reason": reason, "exact": True}
                      for verdict, reason in plants.cm_verdicts(cfg.agents)]
        ctrl_rows = [{"verdict": verdict, "reason": reason, "exact": True}
                     for verdict, reason in couplers.cm_verdicts(cfg.controllers)]
        outdir = _outdir(out)
        _write_json(os.path.join(outdir, "cm_report.json"),
                    {"agents": agent_rows, "controllers": ctrl_rows})
        for name, rows in (("agent", agent_rows), ("controller", ctrl_rows)):
            for i, row in enumerate(rows):
                note = f" ({row['reason']})" if row["reason"] else ""
                click.echo(f"{name} {i}: {row['verdict']}{note}")

    return _guard(run)


@cli.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", default=".", type=click.Path())
@click.option("--tol", default=1e-6,
              type=click.FloatRange(min=0.0, min_open=True))
def cmd_verify(config_path, out, tol):
    """Check a candidate steady state recorded in the config."""

    def run():
        cfg = cfgmod.load_config(config_path)
        if cfg.candidate is None:
            raise ConfigInvalid("config has no 'candidate' section to verify")
        problem = assemble(cfg.graph, cfg.agents, cfg.controllers)
        cand = tuple(np.asarray(cfg.candidate[k], dtype=float)
                     for k in ("u", "y", "zeta", "mu"))
        report = verify_steady_state(problem, cand, tol=tol)
        try:
            gap = duality_gap(problem, cand[0], cand[3], cand[1], cand[2])
        except InfiniteValue:
            gap = float("inf")
        outdir = _outdir(out)
        _write_json(os.path.join(outdir, "verify.json"),
                    {"valid": report.valid, "residuals": report.residuals,
                     "duality_gap": gap})
        for key, val in report.residuals.items():
            click.echo(f"{key} = {val:.6e}")
        click.echo(f"duality_gap = {gap:.6e}")
        click.echo(f"valid = {report.valid}")
        if not report.valid:
            raise Infeasible("candidate fails steady-state verification")

    return _guard(run)


def main(argv=None) -> None:
    try:
        rc = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as ex:
        click.echo(f"usage error: {ex.format_message()}", err=True)
        sys.exit(EXIT_CONFIG)
    except click.ClickException as ex:
        ex.show()
        sys.exit(EXIT_CONFIG)
    except click.exceptions.Abort:
        sys.exit(EXIT_CONFIG)
    sys.exit(rc if isinstance(rc, int) else EXIT_OK)


if __name__ == "__main__":
    main()
