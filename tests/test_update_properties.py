"""Property tests for the penalized rank-two update (hypothesis, derandomized).

H is drawn as A A^T + shift I, so it is safely positive definite; s and y
have entries in [-1, 1], norms of at least 0.1 and an angle whose cosine is
at least 0.1 in magnitude, so s.y is never a rounding error away from 0.
beta ranges over 10^-300 .. 10^300.
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
    # bounded away from the boundary s.y = -1/beta, i.e. beta s.y = -1
    assume(not -1.5 <= beta * pair.sty <= -0.5)
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
