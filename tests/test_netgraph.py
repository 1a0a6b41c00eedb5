import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplednet.errors import (Disconnected, DimensionMismatch, EmptyList,
                               IndexOutOfRange, SelfLoop)
from couplednet.netgraph import build_graph, incidence, project_agreement

from conftest import rand_connected_graph
from dense_oracle import agreement_basis, cycle_basis, incidence_matrix
from set_oracle import solve_affine


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert g.node_count == 4
    assert g.edge_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3), (0, 2))


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 1), (1, 1)])


def test_build_graph_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        build_graph(3, [(0, 1), (1, 3)])
    with pytest.raises(IndexOutOfRange):
        build_graph(3, [(0, 1), (-1, 2)])


def test_build_graph_rejects_disconnected():
    with pytest.raises(Disconnected):
        build_graph(4, [(0, 1), (2, 3)])


def test_build_graph_rejects_empty():
    with pytest.raises((EmptyList, Disconnected)):
        build_graph(2, [])


def test_incidence_signs():
    # tail gets -1, head gets +1
    g = build_graph(2, [(0, 1)])
    op = incidence(g, 1)
    assert op.lifted.tolist() == [[-1.0], [1.0]]


def test_incidence_matrix_diamond():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    op = incidence(g, 1)
    expected = np.array([
        [-1, 0, 0, -1],
        [1, -1, 0, 0],
        [0, 1, -1, 1],
        [0, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(op.lifted, expected)
    assert np.array_equal(incidence_matrix(g), expected)


def test_incidence_lift_is_kron():
    g = build_graph(3, [(0, 1), (1, 2)])
    op = incidence(g, 2)
    assert "lifted" not in vars(op)  # built on first read
    assert op.lifted.shape == (6, 4)
    assert np.array_equal(op.lifted, np.kron(incidence_matrix(g), np.eye(2)))


def test_agreement_basis_spans_constants():
    g = build_graph(3, [(0, 1), (1, 2)])
    op = incidence(g, 2)
    Q = agreement_basis(op)
    assert Q.shape == (6, 2)
    # E' q = 0 for every column and the columns are orthonormal
    assert np.allclose(op.lifted.T @ Q, 0.0, atol=1e-12)
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-12)


def test_cycle_basis_dimension():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    op = incidence(g, 2)
    C = cycle_basis(op)
    # m - n + 1 independent cycles per signal component
    assert C.shape == (8, 2)
    assert np.allclose(op.lifted @ C, 0.0, atol=1e-12)


def test_tree_has_no_cycles():
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    op = incidence(g, 1)
    assert cycle_basis(op).shape[1] == 0


def test_project_agreement_is_componentwise_mean():
    g = build_graph(3, [(0, 1), (1, 2)])
    op = incidence(g, 2)
    u = np.array([1.0, 10.0, 2.0, 20.0, 3.0, 30.0])
    p = project_agreement(op, u)
    assert np.allclose(p, np.array([2.0, 20.0] * 3))


def test_project_agreement_wrong_size():
    g = build_graph(3, [(0, 1), (1, 2)])
    op = incidence(g, 1)
    with pytest.raises(DimensionMismatch):
        project_agreement(op, np.ones(4))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=7), d=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000))
def test_incidence_invariants(n, d, seed):
    rng = np.random.default_rng(seed)
    g = rand_connected_graph(rng, n)
    op = incidence(g, d)
    # columns of the lift sum to zero
    assert np.allclose(op.lifted.sum(axis=0), 0.0)
    # rank of E is n - 1 per component; cut and cycle spaces partition
    assert np.linalg.matrix_rank(op.lifted) == (n - 1) * d
    assert cycle_basis(op).shape[1] == (g.edge_count - n + 1) * d
    # agreement projection is idempotent and E'-annihilated
    u = rng.normal(size=n * d)
    p = project_agreement(op, u)
    assert np.allclose(project_agreement(op, p), p, atol=1e-12)
    assert np.allclose(op.lifted.T @ p, 0.0, atol=1e-12)
    assert np.linalg.norm((u - p).reshape(n, d).sum(axis=0)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=7), d=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000))
def test_index_products_and_cycle_projector_match_the_lift(n, d, seed):
    rng = np.random.default_rng(seed)
    op = incidence(rand_connected_graph(rng, n), d)
    y, mu = rng.normal(size=op.node_size), rng.normal(size=op.edge_size)
    assert np.allclose(op.rmatvec(y), op.lifted.T @ y, rtol=0.0, atol=1e-12)
    assert np.allclose(op.matvec(mu), op.lifted @ mu, rtol=0.0, atol=1e-12)
    # kron(null(base), I_d) spans the same space as the SVD null space of the lift
    svd = solve_affine(op.lifted, np.zeros(op.node_size)).directions
    C = cycle_basis(op)
    assert C.shape == svd.shape
    assert np.allclose(C.T @ C, np.eye(C.shape[1]), rtol=0.0, atol=1e-12)
    assert np.allclose(C @ C.T, svd @ svd.T, rtol=0.0, atol=1e-12)
