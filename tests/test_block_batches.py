"""Stacked functions and relations, evaluated by groups of one kind and
dimension, against evaluating each block on its own."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from couplednet import relations as R
from couplednet.couplers import PSI_RANGE, paper_psi
from couplednet.errors import EmptySelection, Unbounded, UnsupportedKind

from conftest import rand_orth, rand_spd

REL = 1e-12
BLOCKS = ("spd", "singular", "zero", "indicator", "psi")


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


def block_relation(rng, d, kind):
    if kind == "indicator":
        return R.shifted_relation(R.integrator_relation(d, *PSI_RANGE),
                                  input_offset=rng.normal(size=d),
                                  output_offset=rng.normal(size=d))
    if kind == "psi":
        return R.gradient_relation(R.scalar_separable(paper_psi, d, PSI_RANGE))
    return R.affine_relation(rand_psd(rng, d, kind), rng.normal(size=d))


def draw_blocks(data, make):
    seed = data.draw(st.integers(0, 2**31 - 1))
    d = data.draw(st.integers(1, 3))
    kinds = data.draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=8))
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
    closed = [R.conjugate_value(f, yk) for f, yk in zip(blocks, y)]
    scale = sum(map(abs, terms))
    assert close(R.value(stacked, y.ravel()), sum(terms), scale)
    assert close(sum(closed), sum(terms), scale)


def block_set(evaluate, rel, x):
    """(base, free) of evaluate(rel, x) read off its set descriptor."""
    s = evaluate(rel, x)
    if s.is_empty:
        raise EmptySelection("empty")
    free = np.zeros(x.size, dtype=bool)
    if s.kind is R.SetKind.EVERYTHING:
        free[:] = True
    elif s.kind is R.SetKind.AFFINE:
        proj = s.directions @ s.directions.T
        free = np.diag(proj) > 0.5
        if np.abs(proj - np.diag(free.astype(float))).max() > 1e-9:
            raise UnsupportedKind("not aligned")
    return s.basepoint, free


def relation_points(rng, rels, d, evaluate):
    """Points where most blocks have a nonempty set."""
    x = rng.normal(size=(len(rels), d))
    for k, rel in enumerate(rels):
        if rng.random() < 0.2:
            continue
        if rel.kind is R.RelationKind.AFFINE and evaluate is R.inverse:
            x[k] = rel.S @ rng.normal(size=d) + rel.v
        elif rel.kind is R.RelationKind.SHIFTED and evaluate is R.forward:
            x[k] = rel.input_offset
        elif rel.kind is R.RelationKind.SHIFTED:
            x[k] = rel.output_offset + rng.uniform(-1.0, 1.0, d)
        elif rel.kind is R.RelationKind.GRADIENT_OF_CONVEX and evaluate is R.inverse:
            x[k] = rng.uniform(-1.0, 1.0, d)
    return x


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["forward", "inverse"]))
def test_coordinate_sets_match_block_sets(data, which):
    evaluate = getattr(R, which)
    rng, d, rels = draw_blocks(data, block_relation)
    x = relation_points(rng, rels, d, evaluate)
    outs, err = first_error([lambda r=r, xk=xk: block_set(evaluate, r, xk)
                             for r, xk in zip(rels, x)])
    got, got_err = outcome(lambda: R.coordinate_sets(rels, evaluate, x.ravel(), d))
    assert got_err is err
    if err is not None:
        return
    base = np.concatenate([b for (b, _), _ in outs])
    free = np.concatenate([f for (_, f), _ in outs])
    assert np.array_equal(got[1], free)
    assert np.all(np.abs(got[0] - base) <= REL * (1.0 + np.abs(base)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacked_pair_residual_is_the_largest_block_residual(data):
    rng, d, rels = draw_blocks(data, block_relation)
    u = relation_points(rng, rels, d, R.forward)
    y = relation_points(rng, rels, d, R.inverse)
    parts = [R.pair_residual(r, uk, yk) for r, uk, yk in zip(rels, u, y)]
    got = R.pair_residual(R.stacked_relation(rels), u.ravel(), y.ravel())
    assert got == max(parts) or close(got, max(parts), max(parts))
