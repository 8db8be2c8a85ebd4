"""Property tests for the penalized rank-two update (hypothesis, derandomized).

H is drawn as A A^T + shift I, so it is safely positive definite; s and y
have entries in [-1, 1], norms of at least 0.1 and an angle whose cosine is
at least 0.1 in magnitude, so s.y is never a rounding error away from 0.
beta ranges over 10^-300 .. 10^300, and near the boundary s.y = -1/beta
over relative distances 10^-10 .. 0.5 from it.

TestReplayedPairs checks the same guarantees on the (H, pair, beta) of every
update of a few seeded sweep runs, where H's eigenvalues reach 1e-13 and
s.y reaches rounding level.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spbfgs import optimizer
from spbfgs.bench import ExperimentSpec, ProblemRef, run_seed
from spbfgs.diagnostics import trace_bound_h
from spbfgs.errors import SpbfgsError
from spbfgs.linesearch import LineSearchConfig
from spbfgs.noise import NoiseSpec
from spbfgs.optimizer import RunConfig, minimize, minimize_baseline_bfgs
from spbfgs.policy import PenaltyPolicy
from spbfgs.problems import get_problem
from spbfgs.updates import (
    CurvaturePair,
    bfgs_update,
    compute_penalty_scalars,
    is_positive_definite,
    spbfgs_curvature_ok,
    spbfgs_inverse_update,
    spbfgs_update,
)
from spbfgs.verify import product_form_bfgs

PROPERTY = settings(derandomize=True, deadline=None)

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
log10_beta = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)
log10_offset = st.floats(min_value=-10.0, max_value=math.log10(0.5), allow_nan=False)


@st.composite
def problems(draw):
    """(H, pair): H positive definite, pair well away from s.y = 0."""
    n = draw(st.integers(min_value=1, max_value=5))
    a = draw(arrays(float, (n, n), elements=unit))
    shift = draw(st.floats(min_value=0.1, max_value=1.0))
    s = draw(arrays(float, n, elements=unit))
    y = draw(arrays(float, n, elements=unit))
    ns, ny = np.linalg.norm(s), np.linalg.norm(y)
    assume(ns >= 0.1 and ny >= 0.1 and abs(s @ y) >= 0.1 * ns * ny)
    return a @ a.T + shift * np.eye(n), CurvaturePair(s, y)


def update(h, pair, beta):
    """spbfgs_update at beta, or None when the scalars or result degenerate."""
    try:
        return spbfgs_update(h, pair, compute_penalty_scalars(pair, beta))
    except (SpbfgsError, ZeroDivisionError):
        return None


@PROPERTY
@given(problems(), log10_beta)
def test_output_exactly_symmetric(problem, e):
    h, pair = problem
    out = update(h, pair, 10.0 ** e)
    assume(out is not None)
    assert np.array_equal(out, out.T)


@PROPERTY
@given(problems())
def test_beta_zero_returns_h_bitwise(problem):
    h, pair = problem
    out = spbfgs_update(h, pair, compute_penalty_scalars(pair, 0.0))
    assert out.tobytes() == h.tobytes()


@PROPERTY
@given(problems())
def test_beta_inf_is_bfgs_bitwise(problem):
    h, pair = problem
    assume(pair.sty > 0.0)
    out = spbfgs_update(h, pair, compute_penalty_scalars(pair, math.inf))
    assert out.tobytes() == bfgs_update(h, pair).tobytes()


@PROPERTY
@given(problems(), log10_beta)
def test_positive_definite_iff_relaxed_curvature(problem, e):
    h, pair = problem
    beta = 10.0 ** e
    # the boundary s.y = -1/beta, i.e. beta s.y = -1, is drawn on purpose below
    assume(abs(1.0 + beta * pair.sty) >= 1e-10)
    out = update(h, pair, beta)
    assume(out is not None)
    assert is_positive_definite(out) == spbfgs_curvature_ok(pair, beta)


@PROPERTY
@given(problems(), log10_offset, st.sampled_from([-1.0, 1.0]))
def test_positive_definite_iff_relaxed_curvature_near_boundary(problem, e, side):
    """beta = -(1 + side d)/s.y: relative distance d in [1e-10, 0.5] from the boundary.

    float64 cannot decide within ~1e-13: there the update is positive
    definite in exact arithmetic, but its entries grow like 1/d and
    is_positive_definite's pivot tolerance rejects it.
    """
    h, pair = problem
    if pair.sty > 0.0:
        pair = CurvaturePair(pair.s, -pair.y)
    beta = -(1.0 + side * 10.0 ** e) / pair.sty
    out = update(h, pair, beta)
    assume(out is not None)
    assert is_positive_definite(out) == spbfgs_curvature_ok(pair, beta)


@PROPERTY
@given(problems(), log10_beta)
def test_value_identity(problem, e):
    # y^T H+ y = w s.y + (1 - w) y^T H y with w = beta s.y / (1 + beta s.y)
    h, pair = problem
    beta = 10.0 ** e
    assume(not -2.5 <= beta * pair.sty <= -0.5)  # w's pole and omega's
    out = update(h, pair, beta)
    assume(out is not None)
    w = beta * pair.sty / (1.0 + beta * pair.sty)
    expected = w * pair.sty + (1.0 - w) * float(pair.y @ h @ pair.y)
    assert math.isclose(float(pair.y @ out @ pair.y), expected, rel_tol=1e-12)


@PROPERTY
@given(problems(), log10_beta)
def test_trace_bound_on_h(problem, e):
    h, pair = problem
    scalars = compute_penalty_scalars(pair, 10.0 ** e)
    assume(scalars.gamma >= 0.0 and scalars.omega >= 0.0)
    out = spbfgs_update(h, pair, scalars)
    # at tiny beta the update is below an ulp and the bound is met with
    # equality, so allow for rounding
    assert np.trace(out) <= trace_bound_h(h, pair, scalars) * (1.0 + 1e-12)


def sweep_configs():
    """(problem, method, RunConfig): c08's cell for rosenbrock and beale, and c06; 2 reps each."""
    cell = NoiseSpec(1e-4, 1e-4)
    spec = ExperimentSpec(problems=(ProblemRef("rosenbrock"), ProblemRef("beale")),
                          cells=(cell,), noise_mode="relative")
    c06_cell = NoiseSpec(0.0, 1.0)
    c06_linesearch = LineSearchConfig(eps_armijo=0.0, max_backtracks=75)
    c06_policies = {"spbfgs": PenaltyPolicy(kind="linear", step_scale=1.0, offset=1e-10),
                    "bfgs": PenaltyPolicy(kind="constant-infinity", skip_rule="nonpositive")}
    for rep in range(2):
        for method in ("spbfgs", "bfgs"):
            for name in ("rosenbrock", "beale"):
                prob = get_problem(name)
                yield prob, method, spec.run_config(prob, method, cell, rep)
            prob = get_problem("quadratic_ill")
            yield prob, method, RunConfig(
                policy=c06_policies[method], linesearch=c06_linesearch, noise=c06_cell,
                budget_iters=100, seed=run_seed(0, prob.name, method, c06_cell, rep))


@pytest.fixture(scope="module")
def replayed():
    """(H, pair, scalars, H+) of each update in sweep_configs' runs from a positive definite H."""
    captured = []
    kernel = optimizer.spbfgs_update

    def spy(h, pair, scalars, scratch=None):
        before = h.copy()
        kernel(h, pair, scalars, scratch)
        captured.append((before, pair, scalars, h.copy()))
        return h

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "spbfgs_update", spy)
        for prob, method, config in sweep_configs():
            (minimize if method == "spbfgs" else minimize_baseline_bfgs)(prob, config)
    return [c for c in captured if is_positive_definite(c[0])]


def below_resolution(h, pair):
    """s.y <= n eps max_i H_ii |y|^2.

    By the secant equation y.H+y = s.y, H+'s least eigenvalue is then at or
    below the pivot tolerance is_positive_definite applies at H's scale.
    """
    return pair.sty <= pair.n * np.finfo(float).eps * float(h.diagonal().max()) * \
        float(pair.y @ pair.y)


class TestReplayedPairs:
    def test_positive_definite_iff_relaxed_curvature(self, replayed):
        penalized_below = 0
        for h, pair, scalars, out in replayed:
            assert spbfgs_curvature_ok(pair, scalars.beta)
            if math.isinf(scalars.beta) and below_resolution(h, pair):
                continue  # classic BFGS at a rounding-level s.y: float64 cannot decide
            penalized_below += below_resolution(h, pair)
            assert is_positive_definite(out)
            if pair.sty < 0.0:
                # beta' = -4/s.y puts s.y = -4/beta' below -1/beta'
                outside = spbfgs_update(h, pair, compute_penalty_scalars(pair, -4.0 / pair.sty))
                assert not is_positive_definite(outside)
        # the exemption is classic-only: penalized updates in the same regime are checked
        assert len(replayed) > 6000 and penalized_below > 0

    def test_trace_bound_on_h(self, replayed):
        for h, pair, scalars, out in replayed:
            assert np.trace(out) <= trace_bound_h(h, pair, scalars) * (1.0 + 1e-12)

    def test_beta_inf_is_product_form_bfgs(self, replayed):
        classic = 0
        for h, pair, scalars, out in replayed:
            if math.isinf(scalars.beta):
                classic += 1
                ref = product_form_bfgs(h, pair)
                assert np.max(np.abs(out - ref)) <= 3e-12 * np.max(np.abs(ref))
        assert classic > 2000

    def test_value_identity(self, replayed):
        # y.H+y = w s.y + (1 - w) y.Hy, w = beta s.y / (1 + beta s.y) and 1 at beta = +inf,
        # up to rounding in n eps times the magnitudes summed on both sides: where s.y < 0
        # the two terms cancel, so a bound relative to them alone does not hold
        eps = np.finfo(float).eps
        for h, pair, scalars, out in replayed:
            bsy = scalars.beta * pair.sty
            w = 1.0 if math.isinf(scalars.beta) else bsy / (1.0 + bsy)
            y, abs_y = pair.y, np.abs(pair.y)
            terms = (w * pair.sty, (1.0 - w) * float(y @ h @ y))
            scale = float(abs_y @ np.abs(out) @ abs_y + abs_y @ np.abs(h) @ abs_y) \
                + abs(terms[0]) + abs(terms[1])
            assert abs(float(y @ out @ y) - sum(terms)) <= 20.0 * pair.n * eps * scale

    def test_inverse_form_consistency(self, replayed):
        # H+ times the inverse-form update of H^-1 is I, up to rounding scaled by the conditioning
        for h, pair, scalars, out in replayed:
            b_out = spbfgs_inverse_update(np.linalg.inv(h), pair, scalars)
            error = np.max(np.abs(out @ b_out - np.eye(pair.n)))
            assert error <= 1e-11 * (np.linalg.cond(h) + np.linalg.cond(out))
