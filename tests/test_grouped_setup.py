"""Networks read from a config are the networks the library builds.

The config parses agents and controllers by groups of one kind and shape,
and assemble and the packed kernel carry those groups. These tests check
that this changes no bit: a network written with agent_to_spec and
controller_to_spec and read back packs into the same COO arrays and has
the same certificate as the library-built one, and the set-up makes as
many SVD calls at n = 256 as at n = 64.
"""
import json

import numpy as np
import pytest

from couplednet import config, netopt, simulate

from conftest import bench_integrate

PACKED = ("psi_idx", "row", "col", "w", "sig_row", "sig_col", "sig_w")


def ring(nodes, broadcast):
    """bench_integrate's ring as (graph, agents, controllers, config document);
    with broadcast, every node carries agent 0 and both sections are one dict."""
    system = bench_integrate().build_system(nodes)
    agents = list(system.agents)
    if broadcast:
        agents = [agents[0]] * nodes
    specs = [config.agent_to_spec(a) for a in agents]
    ctrls = [config.controller_to_spec(c) for c in system.controllers]
    doc = {"schema": config.SCHEMA,
           "graph": {"nodes": nodes, "edges": [list(e) for e in system.graph.edges]},
           "agents": specs[0] if broadcast else specs,
           "controllers": ctrls[0] if broadcast else ctrls}
    return system.graph, agents, system.controllers, doc


def certificate(graph, agents, controllers):
    problem = netopt.assemble(graph, agents, controllers)
    y, zeta, _ = netopt.solve_opp(problem)
    cert = netopt.recover_certificate(problem, y, zeta)
    gap = netopt.duality_gap(problem, cert.u, cert.mu, cert.y, cert.zeta)
    return (cert.u, cert.y, cert.zeta, cert.mu, cert.residual_consistency,
            cert.residual_relations, cert.residual_inclusion, gap)


@pytest.mark.parametrize("broadcast", [False, True], ids=["list", "broadcast"])
def test_config_network_packs_and_certifies_as_the_library_network(tmp_path, broadcast):
    graph, agents, controllers, doc = ring(64, broadcast)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    cfg = config.load_config(path)
    assert cfg.graph.edges == graph.edges
    want = simulate.closed_loop(graph, agents, controllers).packed
    got = simulate.closed_loop(cfg.graph, cfg.agents, cfg.controllers).packed
    for name in PACKED:
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.dim, got.width) == (want.dim, want.width)
    for a, b in zip(certificate(graph, agents, controllers),
                    certificate(cfg.graph, cfg.agents, cfg.controllers)):
        assert np.array_equal(a, b)


def test_setup_svd_calls_do_not_grow_with_the_network(tmp_path, monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    counts = {}
    for nodes in (64, 256):
        path = tmp_path / f"ring{nodes}.json"
        path.write_text(json.dumps(ring(nodes, False)[3]))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counting)
            cfg = config.load_config(path)
            netopt.assemble(cfg.graph, cfg.agents, cfg.controllers)
            simulate.closed_loop(cfg.graph, cfg.agents, cfg.controllers)
        counts[nodes] = len(calls)
    assert counts[64] == counts[256] >= 1


def test_broadcast_spec_is_parsed_once():
    doc = ring(8, True)[3]
    cfg = config.parse_config(doc)
    assert all(a is cfg.agents[0] for a in cfg.agents)
    assert all(c is cfg.controllers[0] for c in cfg.controllers)


def test_ragged_group_is_parsed_spec_by_spec():
    # two linear agents of one size whose B differ in width do not stack;
    # each is then its own group, and the io_dim check names the mismatch
    agent = {"type": "linear", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
    doc = {"schema": config.SCHEMA, "graph": {"nodes": 2, "edges": [[0, 1]]},
           "agents": [agent, dict(agent, B=[[1.0, 0.0]], C=[[1.0], [0.0]])],
           "controllers": [{"type": "linear_synthesis", "offset": [1.0]}]}
    with pytest.raises(config.ConfigInvalid, match="io_dims differ"):
        config.parse_config(doc)
