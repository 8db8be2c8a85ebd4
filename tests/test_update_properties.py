"""Property tests for the penalized rank-two update (hypothesis, derandomized).

H is drawn as A A^T + shift I, so it is safely positive definite; s and y
have entries in [-1, 1], norms of at least 0.1 and an angle whose cosine is
at least 0.1 in magnitude, so s.y is never a rounding error away from 0.
beta ranges over 10^-300 .. 10^300, and near the boundary s.y = -1/beta
over relative distances 10^-10 .. 0.5 from it.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spbfgs.diagnostics import trace_bound_h
from spbfgs.errors import SpbfgsError
from spbfgs.updates import (
    CurvaturePair,
    bfgs_update,
    compute_penalty_scalars,
    is_positive_definite,
    spbfgs_curvature_ok,
    spbfgs_update,
)

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
