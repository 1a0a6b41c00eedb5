"""Whole-trajectory post-processing, for tests only.

These are the signal recovery, convergence detection and CSV writer that
work on all records at once: one bincount over every (record, coordinate)
bin, one hstack of y and mu masked to the window, and one column_stack
and one orjson call over the whole table. couplednet
does the same work a block of records at a time; the tests require the
same bits and bytes.
A schedule's segments become one table by concatenation.
"""
import dataclasses

import numpy as np
import orjson

from couplednet.couplers import paper_psi
from couplednet.errors import DimensionMismatch
from couplednet.simulate import ConvergenceResult


def packed_signals(packed, states):
    """(u, y, zeta, mu) of the recorded packed states, all records in one pass."""
    op = packed.op
    records = states.shape[0]
    n, size = op.node_size, op.node_size + op.edge_size
    v = np.hstack([states, paper_psi(states[:, packed.psi_idx]), np.ones((records, 1))])
    rec = np.arange(records)[:, None]
    sig = np.bincount((rec * size + packed.sig_row).ravel(),
                      (v[:, packed.sig_col] * packed.sig_w).ravel(),
                      records * size).reshape(records, size)
    y, mu = sig[:, :n], sig[:, n:]
    flat_mu = mu.ravel()
    E_mu = (np.bincount((rec * n + op.head).ravel(), flat_mu, records * n)
            - np.bincount((rec * n + op.tail).ravel(), flat_mu, records * n))
    return -E_mu.reshape(records, n), y, y[:, op.head] - y[:, op.tail], mu


def detect_convergence(traj, window=None, tol=1e-6):
    """simulate.detect_convergence from the stacked signals and a boolean window mask."""
    if not tol >= 0.0:
        raise DimensionMismatch(f"tol: must be non-negative, got {tol}")
    times = traj.times
    span = times[-1] - times[0]
    if window is None:
        window = 0.1 * span
    if window >= span:
        raise DimensionMismatch("trajectory shorter than the window")
    sig = np.hstack([traj.y, traj.mu]) if traj.mu.size else traj.y
    mask = times >= times[-1] - window
    if mask.sum() < 2:
        raise DimensionMismatch("window contains fewer than two samples")
    tail = sig[mask]
    variation = float(np.max(tail.max(axis=0) - tail.min(axis=0))) if tail.size else 0.0
    if not np.isfinite(variation) or variation > tol:
        return ConvergenceResult(converged=False, variation=variation)
    y_ss = traj.y[mask].mean(axis=0)
    mu_ss = traj.mu[mask].mean(axis=0) if traj.mu.size else traj.mu[0]
    return ConvergenceResult(converged=True, y_ss=y_ss, mu_ss=mu_ss, variation=variation)


def export_csv(traj, path):
    """simulate.export_csv's bytes from one orjson call over the whole table."""
    d = traj.system.io_dim
    n = traj.system.graph.node_count
    m = traj.system.graph.edge_count
    header = ["t"]
    header += [f"y[{i}.{c}]" for i in range(n) for c in range(d)]
    header += [f"u[{i}.{c}]" for i in range(n) for c in range(d)]
    header += [f"zeta[{e}.{c}]" for e in range(m) for c in range(d)]
    header += [f"mu[{e}.{c}]" for e in range(m) for c in range(d)]
    data = np.column_stack([traj.times, traj.y, traj.u, traj.zeta, traj.mu])
    text = orjson.dumps(data, option=orjson.OPT_SERIALIZE_NUMPY)
    # orjson writes non-finite values as null; %.17g spells them nan, inf, -inf
    parts = text.split(b"null")
    words = [b"%.17g" % v for v in data[~np.isfinite(data)].tolist()] + [b""]
    text = b"".join(part + word for part, word in zip(parts, words))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.write(text[2:-2].replace(b"],[", b"\r\n") + b"\r\n")


def concatenate(segments):
    """integrate_schedule's segment trajectories as one Trajectory.

    All of segment 0, then each later segment from its second record on,
    as a later segment's first record repeats the boundary; the system is
    the last segment's.
    """
    def cat(name):
        return np.concatenate([getattr(seg, name)[int(k > 0):]
                               for k, seg in enumerate(segments)])

    return dataclasses.replace(segments[-1], **{
        name: cat(name) for name in ("times", "states", "u", "y", "zeta", "mu")})
