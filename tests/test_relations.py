import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplednet import plants
from couplednet import relations as R
from couplednet.errors import (DimensionMismatch, EmptyList, OutsideDomain,
                               RelationNotEvaluable, UnsupportedKind)
from couplednet.relations import PSI_RANGE, paper_psi

from conftest import rand_spd
from set_oracle import SetKind, conjugate, forward, inverse, pair_residual, solve_affine

P2 = np.array([[2.0, 0.0], [0.0, 4.0]])
Q2 = np.array([1.0, -1.0])


# -- integral functions ----------------------------------------------------

def test_quadratic_value_and_gradient():
    f = R.quadratic(P2, Q2, 0.5)
    assert R.value(f, [1.0, 2.0]) == pytest.approx(8.5, abs=1e-12)
    assert np.allclose(R.grad_of(f, [1.0, 2.0]), [3.0, 7.0])


def test_quadratic_conjugate_closed_form():
    f = R.quadratic(P2, Q2, 0.5)
    y = np.array([3.0, 7.0])
    expect = 0.5 * (y - Q2) @ np.linalg.solve(P2, y - Q2) - 0.5
    g = conjugate(f)
    assert R.value(g, y) == pytest.approx(expect, rel=1e-10)


def test_indicator_zero():
    f = R.indicator_zero(2)
    assert R.value(f, [0.0, 0.0]) == 0.0
    assert R.value(f, [1.0, 0.0]) == math.inf
    # conjugate of the indicator of {0} is identically zero
    assert R.value(conjugate(f), [3.0, -2.0]) == 0.0


def test_scalar_separable_takes_paper_psi_only():
    f = R.scalar_separable(paper_psi, 2)
    assert f == R.scalar_separable(paper_psi, 2, PSI_RANGE) == R.scalar_separable(
        paper_psi, 2, list(PSI_RANGE))
    assert np.array_equal(R.grad_of(f, [1.0, -1.0]), paper_psi(np.array([1.0, -1.0])))
    for psi, psi_range in [(lambda t: t ** 3, None), (np.tanh, None), (np.tanh, PSI_RANGE),
                           (paper_psi, (-1.0, 1.0)), (paper_psi, (PSI_RANGE[0], math.inf))]:
        with pytest.raises(UnsupportedKind, match="paper_psi on PSI_RANGE only"):
            R.scalar_separable(psi, 2, psi_range)


def test_scalar_separable_psi_integral():
    # independent quadrature oracles for the saturating nonlinearity
    f = R.scalar_separable(paper_psi, 1, PSI_RANGE)
    assert R.value(f, [1.0]) == pytest.approx(0.09655540213533835, rel=1e-12)
    assert R.value(f, [-1.0]) == pytest.approx(0.05129719936772799, rel=1e-12)
    assert R.value(f, [2.5]) == pytest.approx(1.0286773101992275, rel=1e-12)


def mp_psi(x):
    """paper_psi at mpmath's working precision."""
    ell = mpmath.log((mpmath.exp(x) + 1) / 2)
    return mpmath.asin(mpmath.sign(x) * ell ** 2 / (ell ** 2 + 1))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_psi_integral_matches_mpmath(sign):
    # 40-digit quadrature, summed over the grid's consecutive intervals
    t = sign * np.logspace(-3, 8, 23)
    f = R.scalar_separable(paper_psi, 1)
    got = np.array([R.value(f, [tk]) for tk in t])
    with mpmath.workdps(40):
        ref, total, prev = [], mpmath.mpf(0), mpmath.mpf(0)
        for tk in t:
            total += mpmath.quad(mp_psi, [prev, mpmath.mpf(tk)])
            prev = mpmath.mpf(tk)
            ref.append(float(total))
    bound = np.where(np.abs(t) <= 1e4, 1e-12, 1e-9)
    assert np.all(np.abs(got - ref) <= bound * np.abs(ref))


def test_psi_inverse_matches_mpmath():
    lo, hi = PSI_RANGE
    m = np.concatenate([np.linspace(lo + 1e-3, hi - 1e-3, 101), [-1e-8, 1e-8]])
    got = inverse(R.gradient_relation(R.scalar_separable(paper_psi, m.size)), m).min_norm()
    with mpmath.workdps(40):  # the root of paper_psi(x) = m, from the closed form's x
        ref = np.array([float(mpmath.findroot(lambda x, mk=mpmath.mpf(mk): mp_psi(x) - mk,
                                              mpmath.mpf(x0)))
                        for mk, x0 in zip(m, got)])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def mp_psi_prime(x):
    """mpmath's numerical derivative of mp_psi at x, good to well over 20 digits.

    Where x << 0, paper_psi' is about exp(x) while paper_psi is about
    PSI_RANGE[0], so 40 significant digits of the derivative take 40
    digits beyond exp(-700)'s 304: the working precision is 400 digits.
    """
    with mpmath.workdps(400):
        return float(mpmath.diff(mp_psi, mpmath.mpf(x)))


def psi_draws():
    """2,000 seeded draws with |x| log-uniform from 1e-12 to 700, either sign,
    then the points around and beyond expm1's overflow."""
    rng = np.random.default_rng(44)
    mag = 10.0 ** rng.uniform(-12.0, math.log10(700.0), 2000)
    edges = np.array([709.7, 710.0, 800.0, 1e8])
    return np.concatenate([mag * rng.choice([-1.0, 1.0], mag.size), edges, -edges])


def test_paper_psi_matches_mpmath():
    # ell = log1p(expm1(x) / 2) has no cancellation near 0, and the arctan2 form
    # loses nothing as paper_psi saturates (arcsin's argument near 1 did)
    x = psi_draws()
    with mpmath.workdps(50):
        ref = np.array([float(mp_psi(mpmath.mpf(xk))) for xk in x])
    assert np.all(np.abs(paper_psi(x) - ref) <= 2e-15 * np.abs(ref))


def test_paper_psi_scalar_is_the_array_bits():
    x = psi_draws()
    scalars = np.array([paper_psi(float(xk)) for xk in x])
    assert np.array_equal(scalars.view(np.int64), paper_psi(x).view(np.int64))
    # any shape or layout gives the same bits
    assert np.array_equal(paper_psi(x[::3]), paper_psi(x)[::3])
    assert np.array_equal(paper_psi(x.reshape(2, -1)), paper_psi(x).reshape(2, -1))


def test_paper_psi_raises_nothing_on_finite_input():
    big = np.finfo(float).max
    tiny = np.array([0.0, 5e-324, 1e-310, 1e-200, 1e-160, 1e-150])
    x = np.concatenate([psi_draws(), tiny, -tiny, [big, -big]])
    with np.errstate(all="raise"):
        psi = paper_psi(x)
        assert paper_psi(0.0) == 0.0 and paper_psi(1e-200) == 0.0
    assert np.all(np.isfinite(psi))
    assert np.array_equal(np.signbit(psi), np.signbit(x))
    # the limits, correctly rounded: pi / 2, and one ulp below PSI_RANGE[0],
    # asin's rounding of the lower limit, inside which _psi_inverse stays finite
    assert psi[-2] == PSI_RANGE[1] and psi[-1] == np.nextafter(PSI_RANGE[0], -1.0)


def test_psi_prime_matches_mpmath():
    # relative down to |x| = 1e-12, where paper_psi' is about |x| / 2
    mag = np.concatenate([np.logspace(-12, -3, 10), np.logspace(-3, math.log10(700.0), 21)[1:]])
    x = np.concatenate([-mag, mag])
    ref = np.array([mp_psi_prime(xk) for xk in x])
    assert np.all(np.abs(R.paper_psi_prime(x) - ref) <= 1e-12 * ref)
    assert R.paper_psi_prime(0.0) == 0.0
    assert np.array_equal(R.paper_psi_prime(np.array([0.0, -0.0])), [0.0, 0.0])


def test_psi_prime_stays_in_the_float_range():
    # (L + 1) sqrt(2L + 1) alone overflows past x of about 5.6e102; where
    # x >> 0, ell = x - log 2 and s = 1, so mpmath's closed form is the reference
    big = np.finfo(float).max
    x = np.array([1e103, -1e103, 1e300, -1e300, big, -big])
    with np.errstate(all="raise"):
        got = R.paper_psi_prime(x)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    a = mpmath.mpf(1e103) - mpmath.log(2)
    ref = float(2 * a / ((a * a + 1) * mpmath.sqrt(2 * a * a + 1)))
    assert abs(got[0] - ref) <= 1e-12 * ref
    assert np.array_equal(got[1:], np.zeros(5))  # below the smallest subnormal


def test_psi_inverse_is_empty_at_and_beyond_its_range():
    lo, hi = PSI_RANGE
    rel = R.gradient_relation(R.scalar_separable(paper_psi, 2))
    for m in (lo, np.nextafter(lo, -np.inf), lo - 1.0, -np.inf,
              hi, np.nextafter(hi, np.inf), hi + 1.0, np.inf, np.nan):
        assert inverse(rel, [0.1, m]).is_empty
        assert inverse(rel, [m, -0.1]).is_empty
    inner = inverse(rel, [np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)]).min_norm()
    assert inner[0] < -30.0 and inner[1] > 1e7


def test_paper_psi_frozen_values():
    assert paper_psi(0.0) == 0.0
    assert paper_psi(1.0) == pytest.approx(0.28144022639456756, abs=1e-15)
    assert paper_psi(-1.0) == pytest.approx(-0.1264499241801406, abs=1e-15)
    assert paper_psi(2.5) == pytest.approx(0.8954818902651263, abs=1e-15)


def test_paper_psi_range_and_tails():
    lo, hi = PSI_RANGE
    assert lo == pytest.approx(-0.3305159321801436, abs=1e-14)
    assert hi == pytest.approx(math.pi / 2, abs=1e-14)
    # saturates without overflow on both tails (the upper approach is slow)
    assert paper_psi(800.0) == pytest.approx(hi, abs=3e-3)
    assert paper_psi(-800.0) == pytest.approx(lo, abs=1e-6)
    assert np.isfinite(paper_psi(np.array([-1e8, 1e8]))).all()


def test_shift_of_shift():
    g = R.shifted(R.quadratic(np.eye(2)), shift=[1.0, 0.0], constant=2.0)
    assert R.value(g, [1.0, 0.0]) == pytest.approx(2.0)
    # a shift of a shift is stored as one, with the same values
    h = R.shifted(g, shift=[0.5, -1.0], linear=[2.0, 3.0], constant=-1.0)
    assert h.inner.kind is R.FunctionKind.QUADRATIC
    for x in ([0.0, 0.0], [1.5, -1.0], [-2.0, 3.0]):
        z = np.subtract(x, [0.5, -1.0])
        assert R.value(h, x) == pytest.approx(R.value(g, z) + 2.0 * x[0] + 3.0 * x[1] - 1.0)


def test_stacked_blocks():
    f = R.stacked([R.quadratic(np.eye(1)), R.quadratic(2.0 * np.eye(2))])
    assert f.dim == 3
    assert R.value(f, [1.0, 1.0, 1.0]) == pytest.approx(0.5 + 2.0)
    assert np.allclose(R.grad_of(f, [1.0, 1.0, 1.0]), [1.0, 2.0, 2.0])


def test_value_dimension_check():
    f = R.quadratic(P2)
    with pytest.raises(DimensionMismatch):
        R.value(f, [1.0, 2.0, 3.0])


def test_indicator_subgradient_empty_off_origin():
    f = R.indicator_zero(2)
    assert forward(R.gradient_relation(f), [0.0, 0.0]).kind is SetKind.EVERYTHING
    assert forward(R.gradient_relation(f), [1.0, 0.0]).is_empty
    with pytest.raises(OutsideDomain):
        R.grad_of(f, [1.0, 0.0])


def test_min_norm_subgradient_of_indicator_parts():
    # a stacked indicator block is free at its point, a shifted one everywhere there
    f = R.stacked([R.indicator_zero(1), R.quadratic(np.eye(1), [2.0])])
    assert np.array_equal(R.grad_of(f, [0.0, 1.0]), [0.0, 3.0])
    with pytest.raises(OutsideDomain):
        R.grad_of(f, [0.5, 1.0])
    g = R.shifted(R.indicator_zero(2), shift=[1.0, -1.0], linear=[3.0, 4.0])
    assert np.array_equal(R.grad_of(g, [1.0, -1.0]), [0.0, 0.0])


def test_as_quadratic_roundtrip():
    f = R.quadratic(P2, Q2, 0.25)
    P, q, c = R.as_quadratic(f)
    assert np.allclose(P, P2) and np.allclose(q, Q2) and c == 0.25
    assert R.as_quadratic(R.scalar_separable(paper_psi, 1, PSI_RANGE)) is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       d=st.integers(min_value=1, max_value=4))
def test_fenchel_young_equality_at_subgradients(seed, d):
    rng = np.random.default_rng(seed)
    f = R.quadratic(rand_spd(rng, d), rng.normal(size=d))
    x = rng.normal(size=d)
    g = R.grad_of(f, x)
    resid = R.value(f, x) + R.value(conjugate(f), g) - g @ x
    assert abs(resid) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fenchel_young_inequality(seed):
    rng = np.random.default_rng(seed)
    f = R.quadratic(rand_spd(rng, 2), rng.normal(size=2))
    x, y = rng.normal(size=2), rng.normal(size=2)
    assert R.value(f, x) + R.value(conjugate(f), y) - y @ x >= -1e-9


def test_subgradient_matches_central_difference():
    rng = np.random.default_rng(0)
    f = R.scalar_separable(paper_psi, 2, PSI_RANGE)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, 2)
        g = R.grad_of(f, x)
        h = 1e-5
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd = (R.value(f, x + e) - R.value(f, x - e)) / (2 * h)
            assert g[c] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_solve_affine_min_norm_and_null_basis():
    mat = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    sol = solve_affine(mat, [2.0, 4.0])
    assert sol.kind is SetKind.AFFINE
    assert np.allclose(sol.basepoint, [1.0, 1.0, 0.0], atol=1e-14)
    Z = sol.directions
    assert Z.shape == (3, 2)
    assert np.allclose(Z.T @ Z, np.eye(2), atol=1e-14)
    assert np.allclose(mat @ Z, 0.0, atol=1e-14)
    assert solve_affine(mat, [2.0, 5.0]).is_empty
    assert solve_affine(np.eye(2), [3.0, 4.0]).directions.shape == (2, 0)
    assert solve_affine(np.zeros((0, 2)), []).kind is SetKind.EVERYTHING


# -- vector relations ------------------------------------------------------

def test_affine_relation_forward_inverse():
    S = np.array([[2.0, 0.0], [0.0, 3.0]])
    rel = R.affine_relation(S, [1.0, 1.0])
    y = forward(rel, [3.0, 4.0]).min_norm()
    assert np.allclose(y, [7.0, 13.0])
    u = inverse(rel, [7.0, 13.0]).min_norm()
    assert np.allclose(u, [3.0, 4.0])
    assert pair_residual(rel, [3.0, 4.0], [7.0, 13.0]) <= 1e-12


def test_gradient_relation_of_quadratic():
    rel = R.gradient_relation(R.quadratic(P2, Q2))
    assert np.allclose(forward(rel, [1.0, 2.0]).min_norm(), [3.0, 7.0])
    assert np.allclose(inverse(rel, [3.0, 7.0]).min_norm(), [1.0, 2.0])


def test_integrator_relation_semantics():
    rel = R.integrator_relation(2, -1.0, 1.0)
    # only zero input admits a steady state, with free output
    assert forward(rel, [0.0, 0.0]).kind is SetKind.EVERYTHING
    assert forward(rel, [1.0, 0.0]).is_empty
    assert np.allclose(inverse(rel, [0.5, 0.0]).min_norm(), 0.0)


def test_inverted_relation_swaps():
    rel = R.affine_relation(np.diag([2.0, 3.0]), [1.0, 1.0])
    inv = R.inverted_relation(rel)
    assert np.allclose(forward(inv, [3.0, 4.0]).min_norm(), [1.0, 1.0])
    assert np.allclose(inverse(inv, [1.0, 1.0]).min_norm(), [3.0, 4.0])


def test_stacked_and_shifted_relation():
    rel = R.stacked_relation([R.affine_relation(np.eye(1)),
                              R.affine_relation(2.0 * np.eye(1))])
    assert np.allclose(forward(rel, [1.0, 1.0]).min_norm(), [1.0, 2.0])
    sh = R.shifted_relation(R.affine_relation(np.eye(2)),
                            input_offset=[1.0, 0.0], output_offset=[0.0, 2.0])
    y = forward(sh, [1.0, 1.0]).min_norm()
    assert np.allclose(y, [0.0, 3.0])


def test_cyclic_sum_hand_value():
    # pairs ((u, y)) around a 3-cycle
    pairs = [([0.0], [1.0]), ([1.0], [2.0]), ([2.0], [0.0])]
    total = 1.0 * (0 - 2) + 2.0 * (1 - 0) + 0.0 * (2 - 1)
    assert R.cyclic_sum(pairs) == pytest.approx(total)
    with pytest.raises(EmptyList):
        R.cyclic_sum([])


def test_check_cm_passes_definite():
    rng = np.random.default_rng(3)
    rel = R.affine_relation(rand_spd(rng, 2, 0.5, 3.0))
    res = R.check_cm(rel, R.Sampler(seed=5), cycles=2000)
    assert res.passed
    assert res.cycles_checked == 2000


def test_check_cm_refutes_indefinite_with_witness():
    rel = R.affine_relation(np.diag([1.0, -1.0]))
    res = R.check_cm(rel, R.Sampler(seed=5), cycles=2000)
    assert not res.passed
    assert res.witness is not None
    assert R.cyclic_sum(res.witness) == pytest.approx(res.witness_sum)
    assert res.witness_sum < 0


def test_check_cm_refutes_skew():
    # rotation by 90 degrees is monotone but not cyclically monotone
    rel = R.affine_relation(np.array([[0.0, -1.0], [1.0, 0.0]]))
    res = R.check_cm(rel, R.Sampler(seed=2), cycles=2000)
    assert not res.passed


@pytest.mark.parametrize("seed", range(5))
def test_check_cm_passes_paper_psi_agent(seed):
    psi = R.scalar_separable(paper_psi, 2, PSI_RANGE)
    rel = plants.ss_relation(plants.convex_gradient_agent(psi))
    res = R.check_cm(rel, R.Sampler(seed=seed))
    assert res.passed
    assert res.cycles_checked == 10_000


def test_check_cm_refutes_stack_with_witness_on_graph():
    # the inverse of grad of a separable paper_psi, beside an indefinite map
    inv_grad = R.inverted_relation(
        R.gradient_relation(R.scalar_separable(paper_psi, 1, PSI_RANGE)))
    rel = R.stacked_relation([inv_grad, R.affine_relation(np.diag([1.0, -1.0]))])
    res = R.check_cm(rel, R.Sampler(seed=7), cycles=2000)
    assert not res.passed
    for u, y in res.witness:
        assert pair_residual(rel, u, y) <= 1e-9
    assert res.witness_sum == R.cyclic_sum(res.witness)
    assert res.witness_sum < -1e-9


def test_check_cm_is_deterministic_per_seed():
    rel = R.affine_relation(np.array([[0.5, -1.0], [1.0, 0.5]]))
    first = R.check_cm(rel, R.Sampler(seed=11), cycles=3000)
    second = R.check_cm(rel, R.Sampler(seed=11), cycles=3000)
    assert not first.passed
    assert first.cycles_checked == second.cycles_checked
    assert first.witness_sum == second.witness_sum
    assert len(first.witness) == len(second.witness)
    for (u1, y1), (u2, y2) in zip(first.witness, second.witness):
        assert np.array_equal(u1, u2) and np.array_equal(y1, y2)


def test_check_cm_shifted_relations():
    rng = np.random.default_rng(8)
    offsets = dict(input_offset=[1.5, -2.0], output_offset=[0.3, 4.0])
    spd = R.shifted_relation(R.affine_relation(rand_spd(rng, 2, 0.5, 3.0)), **offsets)
    res = R.check_cm(spd, R.Sampler(seed=3), cycles=2000)
    assert res.passed and res.cycles_checked == 2000
    indef = R.shifted_relation(R.affine_relation(np.diag([2.0, -0.5])), **offsets)
    res = R.check_cm(indef, R.Sampler(seed=3), cycles=2000)
    assert not res.passed
    for u, y in res.witness:
        assert pair_residual(indef, u, y) <= 1e-9


def test_check_cm_gradient_of_indicator_not_evaluable():
    with pytest.raises(RelationNotEvaluable):
        R.check_cm(R.gradient_relation(R.indicator_zero(2)), R.Sampler(seed=0))


@pytest.mark.parametrize("budget", [dict(cycles=0), dict(cycles=-5),
                                    dict(max_cycle_len=1)])
def test_check_cm_rejects_empty_budget(budget):
    rel = R.affine_relation(np.diag([1.0, -1.0]))
    with pytest.raises(EmptyList):
        R.check_cm(rel, R.Sampler(seed=0), **budget)


def test_sum_with_nonquadratic_part_has_no_closed_form():
    # a block-separable sum with a paper_psi part has no closed-form
    # conjugate, though its gradient inverts block by block
    f = R.stacked([R.quadratic(np.eye(2)), R.scalar_separable(paper_psi, 2)])
    with pytest.raises(UnsupportedKind):
        conjugate(f)
    rel = R.gradient_relation(f)
    y = [1.0, 2.0, 0.5, -0.2]
    assert np.allclose(forward(rel, inverse(rel, y).min_norm()).min_norm(), y,
                       rtol=0.0, atol=1e-15)


def test_conjugate_value_unbounded():
    # linear function: conjugate finite only at its slope
    conj = conjugate(R.quadratic(np.zeros((1, 1)), np.array([2.0])))
    assert R.value(conj, [2.0]) == 0.0
    assert R.value(conj, [2.5]) == math.inf


# -- the coordinate-major sampler -------------------------------------------

def test_graph_points_lie_on_their_relation():
    rng = np.random.default_rng(21)
    S, v = rng.normal(size=(3, 3)), rng.normal(size=3)
    u, y = R._graph_points(R.affine_relation(S, v), rng, 500, R.Sampler())
    assert u.shape == y.shape == (3, 500)
    assert np.all((u >= -3.0) & (u <= 3.0))
    assert np.max(np.abs(y - (S @ u + v[:, None]))) <= 1e-12
    shift, b = rng.normal(size=2), rng.normal(size=2)
    chi = R.shifted(R.scalar_separable(paper_psi, 2), shift=shift, linear=b)
    u, y = R._graph_points(R.gradient_relation(chi), rng, 500, R.Sampler())
    assert u.shape == y.shape == (2, 500)
    assert np.array_equal(y, paper_psi(u - shift[:, None]) + b[:, None])
    # a stack takes its children's rows, an inverse swaps the sides
    stack = R.stacked_relation([R.affine_relation(S, v),
                                R.inverted_relation(R.gradient_relation(chi))])
    u, y = R._graph_points(stack, rng, 50, R.Sampler())
    assert u.shape == y.shape == (5, 50)
    assert np.max(np.abs(y[:3] - (S @ u[:3] + v[:, None]))) <= 1e-12
    assert np.array_equal(u[3:], paper_psi(y[3:] - shift[:, None]) + b[:, None])


@pytest.mark.parametrize("seed", range(5))
def test_check_cm_refutes_indefinite_in_its_first_chunk(seed):
    res = R.check_cm(R.affine_relation(np.diag([1.0, -1.0])), R.Sampler(seed=seed))
    assert not res.passed and res.cycles_checked <= 1024


def cm_relation_set(rng, d=2):
    """(relation, expected verdict) pairs of each category in a cm benchmark
    set: spd, indefinite and skew affine maps, and gradients of shifted,
    tilted separable paper_psi potentials."""
    def orth():
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        return q * np.sign(np.diag(r))

    out = []
    for category, count in (("spd", 3), ("indefinite", 2), ("skew", 2), ("gradient", 3)):
        for _ in range(count):
            b = rng.normal(size=d)
            if category == "gradient":
                chi = R.shifted(R.scalar_separable(paper_psi, d, PSI_RANGE),
                                shift=rng.normal(0.0, 0.5, d), linear=b)
                out.append((R.gradient_relation(chi), True))
                continue
            eigs = rng.uniform(0.3, 2.5, d)
            if category == "indefinite":
                eigs[int(rng.integers(0, d))] *= -1.0
            q = orth()
            S = q @ np.diag(eigs if category != "skew" else 0.2 * eigs) @ q.T
            if category == "skew":
                K = rng.normal(size=(d, d))
                S += 3.0 * (K - K.T) / np.linalg.norm(K - K.T, 2)
            out.append((R.affine_relation(S, b), category == "spd"))
    return out


def test_check_cm_verdicts_on_a_benchmark_like_set():
    rng = np.random.default_rng(3)
    for rel, expect in cm_relation_set(rng):
        res = R.check_cm(rel, R.Sampler(seed=int(rng.integers(2 ** 31))))
        assert res.passed is expect
        if expect:
            assert res.cycles_checked == 10_000
            continue
        assert res.witness_sum == R.cyclic_sum(res.witness) < -1e-9
        for u, y in res.witness:
            assert pair_residual(rel, u, y) <= 1e-9
