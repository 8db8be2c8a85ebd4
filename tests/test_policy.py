"""Penalty schedules, recovery rules, and baseline admission rules."""

import math

import numpy as np
import pytest

from spbfgs.policy import (
    SKIP,
    UPDATE,
    PenaltyPolicy,
    baseline_update_ok,
    propose_beta,
    resolve_beta,
)
from spbfgs.updates import CurvaturePair


class TestProposal:
    def test_constant_infinity(self):
        pol = PenaltyPolicy(kind="constant-infinity")
        assert propose_beta(pol, np.array([5.0, 0.0])) == math.inf

    def test_constant(self):
        pol = PenaltyPolicy(kind="constant", beta=7.5)
        assert propose_beta(pol, np.zeros(3)) == 7.5

    def test_linear_in_step_norm(self):
        pol = PenaltyPolicy(kind="linear", step_scale=2.0, offset=0.25)
        assert propose_beta(pol, np.array([3.0, 4.0])) == 2.0 * 5.0 + 0.25

    def test_linear_vanishing_step(self):
        pol = PenaltyPolicy(kind="linear", step_scale=10.0, offset=1e-10)
        assert propose_beta(pol, np.zeros(2)) == 1e-10

    def test_thresholded_clamps_at_zero(self):
        pol = PenaltyPolicy(kind="thresholded", step_scale=1.0, threshold=10.0)
        assert propose_beta(pol, np.array([3.0, 4.0])) == 0.0
        assert propose_beta(pol, np.array([30.0, 40.0])) == 40.0


class TestResolve:
    def test_update_when_condition_holds(self):
        pol = PenaltyPolicy(kind="constant", beta=1.0)
        pair = CurvaturePair([1.0], [1.0])
        beta, action = resolve_beta(pol, pair, 1.0)
        assert (beta, action) == (1.0, UPDATE)

    def test_skip_recovery(self):
        pol = PenaltyPolicy(kind="constant", beta=100.0, recovery="skip")
        pair = CurvaturePair([1.0], [-1.0])
        beta, action = resolve_beta(pol, pair, 100.0)
        assert (beta, action) == (0.0, SKIP)

    def test_shrink_recovery(self):
        pol = PenaltyPolicy(kind="constant", beta=100.0, recovery="shrink",
                            shrink_factor=2.0)
        pair = CurvaturePair([1.0], [-0.5])
        beta, action = resolve_beta(pol, pair, 100.0)
        assert action == UPDATE
        assert beta == -1.0 / (2.0 * pair.sty) == 1.0
        # the shrunk beta must itself satisfy the relaxed condition
        assert pair.sty > -1.0 / beta

    def test_shrink_falls_back_to_skip_at_zero_sty(self):
        pol = PenaltyPolicy(kind="constant-infinity", recovery="shrink")
        pair = CurvaturePair([1.0, 0.0], [0.0, 1.0])
        beta, action = resolve_beta(pol, pair, math.inf)
        assert (beta, action) == (0.0, SKIP)

    def test_beta_zero_never_needs_recovery(self):
        pol = PenaltyPolicy(kind="thresholded", step_scale=1.0, threshold=1e6)
        pair = CurvaturePair([1.0], [-5.0])
        beta, action = resolve_beta(pol, pair, 0.0)
        assert (beta, action) == (0.0, UPDATE)


class TestBaselineRules:
    def test_nonpositive(self):
        pol = PenaltyPolicy(skip_rule="nonpositive")
        assert baseline_update_ok(pol, CurvaturePair([1.0], [2.0]))
        assert not baseline_update_ok(pol, CurvaturePair([1.0], [0.0]))
        assert not baseline_update_ok(pol, CurvaturePair([1.0], [-2.0]))

    def test_step_norm(self):
        pol = PenaltyPolicy(skip_rule="step-norm", skip_eps=0.5)
        # needs s.y >= eps ||s||^2 = 2
        assert baseline_update_ok(pol, CurvaturePair([2.0], [1.1]))
        assert not baseline_update_ok(pol, CurvaturePair([2.0], [0.9]))

    def test_cosine(self):
        pol = PenaltyPolicy(skip_rule="cosine", skip_zeta=0.5)
        # needs s.y >= zeta ||s|| ||y||
        ok = CurvaturePair([1.0, 0.0], [1.0, 0.5])
        bad = CurvaturePair([1.0, 0.0], [0.5, 1.0])
        assert baseline_update_ok(pol, ok)
        assert not baseline_update_ok(pol, bad)

    @pytest.mark.parametrize("pol", [PenaltyPolicy(skip_rule="step-norm", skip_eps=0.5),
                                     PenaltyPolicy(skip_rule="cosine", skip_zeta=0.5)])
    def test_zero_sty_refused_by_every_rule(self, pol):
        # the bounds are 0 too here, yet BFGS is undefined at s.y = 0
        assert not baseline_update_ok(pol, CurvaturePair([1.0, 0.0], [0.0, 0.0]))
        assert not baseline_update_ok(pol, CurvaturePair([0.0, 0.0], [1.0, 0.0]))


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="quadratic")

    def test_unknown_recovery(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(recovery="retry")

    def test_unknown_skip_rule(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(skip_rule="always")

    def test_negative_constant_beta(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="constant", beta=-1.0)

    def test_negative_step_scale(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="linear", step_scale=-1.0)

    def test_infinite_step_scale_or_threshold(self):
        # beta would be nan: inf * 0 at a zero step, or inf - inf once
        # step_scale * ||s|| overflows
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="linear", step_scale=math.inf)
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="thresholded", step_scale=1e308, threshold=math.inf)

    def test_shrink_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(recovery="shrink", shrink_factor=1.0)

    def test_step_norm_needs_eps(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(skip_rule="step-norm", skip_eps=0.0)

    def test_cosine_needs_zeta_in_unit_interval(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(skip_rule="cosine", skip_zeta=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(step_scale=math.nan),
        dict(offset=math.nan),
        dict(threshold=math.nan),
        dict(recovery="shrink", shrink_factor=math.nan),
        dict(skip_rule="step-norm", skip_eps=math.nan),
    ], ids=["step_scale", "offset", "threshold", "shrink_factor", "skip_eps"])
    def test_nan_is_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="linear", **kwargs)
