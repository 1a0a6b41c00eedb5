"""Stacked functions and relations, evaluated by groups of one kind and
dimension, against evaluating each block on its own; relation sets and
residuals against the per-item ladders of set_oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplednet import relations as R
from couplednet.couplers import PSI_RANGE, paper_psi
from couplednet.errors import EmptySelection, Unbounded, UnsupportedKind

import set_oracle
from conftest import rand_orth, rand_spd

REL = 1e-12
BLOCKS = ("spd", "singular", "zero", "indicator", "psi")
# gradient relations of: a quadratic, a shifted indicator_zero, a stack
# of the BLOCKS functions, a shifted and tilted paper_psi
GRADIENTS = ("grad_spd", "grad_singular", "grad_zero", "grad_indicator", "grad_stack",
             "grad_shifted_psi")


def rand_psd(rng, d, kind):
    """An SPD, a singular PSD (rank d - 1, zero at d = 1) or a zero matrix."""
    if kind == "spd":
        return rand_spd(rng, d)
    if kind == "zero":
        return np.zeros((d, d))
    q = rand_orth(rng, d)
    return q @ np.diag(np.append(rng.uniform(0.5, 2.0, d - 1), 0.0)) @ q.T


def block_function(rng, d, kind):
    if kind == "indicator":
        return R.shifted(R.indicator_zero(d), shift=rng.normal(size=d),
                         linear=rng.normal(size=d), constant=rng.normal())
    if kind == "psi":
        return R.scalar_separable(paper_psi, d, PSI_RANGE)
    return R.quadratic(rand_psd(rng, d, kind), rng.normal(size=d), rng.normal())


def gradient_function(rng, d, kind):
    """The function whose gradient relation block_relation draws for kind."""
    if kind == "grad_indicator":
        return block_function(rng, d, "indicator")
    if kind == "grad_stack":
        cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(0, d), replace=False))
        return R.stacked([block_function(rng, hi - lo, rng.choice(BLOCKS))
                          for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, d])])
    if kind == "grad_shifted_psi":
        return R.shifted(block_function(rng, d, "psi"), shift=rng.normal(size=d),
                         linear=rng.normal(size=d))
    return block_function(rng, d, kind.removeprefix("grad_"))


def block_relation(rng, d, kind):
    if kind.startswith("grad_"):
        return R.gradient_relation(gradient_function(rng, d, kind))
    if kind == "indicator":
        return R.shifted_relation(R.integrator_relation(d, *PSI_RANGE),
                                  input_offset=rng.normal(size=d),
                                  output_offset=rng.normal(size=d))
    if kind == "psi":
        return R.gradient_relation(R.scalar_separable(paper_psi, d, PSI_RANGE))
    return R.affine_relation(rand_psd(rng, d, kind), rng.normal(size=d))


def draw_blocks(data, make, kinds=BLOCKS):
    seed = data.draw(st.integers(0, 2**31 - 1))
    d = data.draw(st.integers(1, 3))
    kinds = data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8))
    rng = np.random.default_rng(seed)
    return rng, d, [make(rng, d, kind) for kind in kinds]


def outcome(fn):
    """(value, None) or (None, the class of the error fn raised)."""
    try:
        return fn(), None
    except (EmptySelection, UnsupportedKind, Unbounded) as exc:
        return None, type(exc)


def first_error(fns):
    """Per-block outcomes, and the error of the first block that raised."""
    outs = [outcome(fn) for fn in fns]
    return outs, next((err for _, err in outs if err is not None), None)


def close(a, b, scale):
    return abs(a - b) <= REL * (1.0 + scale)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stacked_value_is_the_sum_of_block_values(data):
    rng, d, blocks = draw_blocks(data, block_function)
    x = rng.normal(size=(len(blocks), d))
    for k, f in enumerate(blocks):  # half the indicator blocks at their point
        if f.kind is R.FunctionKind.SHIFTED and rng.random() < 0.5:
            x[k] = f.shift
    terms = [R.value(f, xk) for f, xk in zip(blocks, x)]
    total = R.value(R.stacked(blocks), x.ravel())
    finite = [t for t in terms if math.isfinite(t)]
    if len(finite) < len(terms):
        assert total == math.inf
    else:
        assert close(total, sum(terms), sum(map(abs, terms)))
    for f, xk, t in zip(blocks, x, terms):  # a quadratic block against its formula
        if f.kind is R.FunctionKind.QUADRATIC:
            assert close(t, 0.5 * xk @ f.P @ xk + f.q @ xk + f.c, abs(t))


def conjugate_by_hand(f, y):
    """f*(y) of a block whose conjugate exists: a quadratic of invertible P,
    an affine one at its slope y = q, or a shifted indicator
    x -> ind(x - a) + b'x + c, whose conjugate is (y - b)'a - c."""
    if f.kind is R.FunctionKind.SHIFTED:
        return (y - f.linear) @ f.shift - f.constant
    if not f.P.any():
        return -f.c
    return 0.5 * (y - f.q) @ np.linalg.solve(f.P, y - f.q) - f.c


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stacked_conjugate_matches_block_conjugates(data):
    rng, d, blocks = draw_blocks(data, block_function)
    outs, err = first_error([lambda f=f: R.conjugate_function(f) for f in blocks])
    stacked, stacked_err = outcome(lambda: R.conjugate_function(R.stacked(blocks)))
    assert stacked_err is err
    if err is not None:
        return
    # evaluate where every block's conjugate is finite: at q for affine blocks
    y = rng.normal(size=(len(blocks), d))
    for k, (conj, _) in enumerate(outs):
        if conj.kind is R.FunctionKind.SHIFTED and conj.inner.kind is R.FunctionKind.INDICATOR_ZERO:
            y[k] = conj.shift
    terms = [R.value(conj, yk) for (conj, _), yk in zip(outs, y)]
    closed = [conjugate_by_hand(f, yk) for f, yk in zip(blocks, y)]
    scale = sum(map(abs, terms))
    assert close(R.value(stacked, y.ravel()), sum(terms), scale)
    assert close(sum(closed), sum(terms), scale)


def relation_points(rng, rels, d, evaluate):
    """Points where most blocks have a nonempty set: evaluate is
    set_oracle.forward or set_oracle.inverse."""
    x = rng.normal(size=(len(rels), d))
    for k, rel in enumerate(rels):
        if rng.random() < 0.2:
            continue
        x[k] = graph_side(rng, rel, evaluate is set_oracle.inverse)
    return x


def graph_side(rng, rel, outputs):
    """An input (or, with outputs, an output) of a point of rel's graph."""
    d = rel.dim
    if rel.kind is R.RelationKind.AFFINE:
        return rel.S @ rng.normal(size=d) + rel.v if outputs else rng.normal(size=d)
    if rel.kind is R.RelationKind.SHIFTED:
        return rel.output_offset + rng.uniform(-1.0, 1.0, d) if outputs else rel.input_offset
    chi = rel.chi
    if chi.kind is R.FunctionKind.STACKED:
        return np.concatenate([graph_side(rng, R.gradient_relation(ch), outputs)
                               for ch in chi.children])
    if chi.kind is R.FunctionKind.SHIFTED:
        side = graph_side(rng, R.gradient_relation(chi.inner), outputs)
        return side + (chi.linear if outputs else chi.shift)
    if chi.kind is R.FunctionKind.INDICATOR_ZERO:
        return rng.uniform(-1.0, 1.0, d) if outputs else np.zeros(d)
    if chi.kind is R.FunctionKind.SCALAR_SEPARABLE:
        return rng.uniform(-1.0, 1.0, d) if outputs else rng.normal(size=d)
    u = rng.normal(size=d)
    return R.grad_of(chi, u) if outputs else u


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(["forward", "inverse"]))
def test_coordinate_sets_match_block_sets(data, which):
    evaluate = getattr(set_oracle, which)
    rng, d, rels = draw_blocks(data, block_relation, BLOCKS + GRADIENTS)
    x = relation_points(rng, rels, d, evaluate)
    outs, err = first_error([lambda r=r, xk=xk: set_oracle.block_set(evaluate, r, xk)
                             for r, xk in zip(rels, x)])
    got, got_err = outcome(lambda: R.coordinate_sets(rels, getattr(R, which), x.ravel(), d))
    assert got_err is err
    if err is not None:
        return
    base = np.concatenate([b for (b, _), _ in outs])
    free = np.concatenate([f for (_, f), _ in outs])
    assert np.array_equal(got[1], free)
    assert np.all(np.abs(got[0] - base) <= REL * (1.0 + np.abs(base)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stacked_pair_residual_is_the_largest_block_residual(data):
    rng, d, rels = draw_blocks(data, block_relation, BLOCKS + GRADIENTS)
    u = relation_points(rng, rels, d, set_oracle.forward)
    y = relation_points(rng, rels, d, set_oracle.inverse)
    parts = [set_oracle.pair_residual(r, uk, yk) for r, uk, yk in zip(rels, u, y)]
    got = R.pair_residual(R.stacked_relation(rels), u.ravel(), y.ravel())
    assert got == max(parts) or close(got, max(parts), max(parts))


@pytest.mark.parametrize("make", [lambda P, q: R.affine_relation(P, q),
                                  lambda P, q: R.gradient_relation(R.quadratic(P, q))],
                         ids=["affine", "gradient"])
def test_rotated_singular_inverse_is_refused_by_both(make):
    rng = np.random.default_rng(4)
    P, q = rand_psd(rng, 2, "singular"), rng.normal(size=2)
    rel, y = make(P, q), P @ rng.normal(size=2) + q
    with pytest.raises(UnsupportedKind):
        set_oracle.block_set(set_oracle.inverse, rel, y)
    with pytest.raises(UnsupportedKind):
        R.coordinate_sets([rel], R.inverse, y, 2)
    with pytest.raises(UnsupportedKind):
        R.inverse(rel, y)
