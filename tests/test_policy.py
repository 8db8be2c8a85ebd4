"""Penalty schedules, recovery rules, and baseline admission rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spbfgs.errors import NonFiniteError
from spbfgs.policy import (
    SKIP,
    UPDATE,
    PenaltyPolicy,
    baseline_update_ok,
    propose_beta,
    resolve_beta,
)
from spbfgs.updates import CurvaturePair, compute_penalty_scalars, spbfgs_curvature_ok

# the smallest shrink_factor validation accepts
NEXT_AFTER_ONE = math.nextafter(1.0, 2.0)


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

    def test_shrink_skips_a_beta_that_fails_its_own_condition(self):
        # -1 / (shrink_factor * s.y) at the smallest shrink_factor rounds
        # s.y + 1/beta to 0: a sineval sweep run reached this pair and
        # compute_penalty_scalars raised SingularDenominatorError
        pol = PenaltyPolicy(kind="constant", beta=1e6, recovery="shrink",
                            shrink_factor=NEXT_AFTER_ONE)
        pair = CurvaturePair([1.0], [-4.483654064247673e-05])
        assert resolve_beta(pol, pair, 1e6) == (0.0, SKIP)

    def test_shrink_falls_back_to_skip_at_zero_sty(self):
        pol = PenaltyPolicy(kind="constant-infinity", recovery="shrink")
        pair = CurvaturePair([1.0, 0.0], [0.0, 1.0])
        beta, action = resolve_beta(pol, pair, math.inf)
        assert (beta, action) == (0.0, SKIP)

    def test_shrink_does_not_apply_at_infinite_beta(self):
        # the skip rule refuses s.y < 0 at +inf; shrink would give beta =
        # -1 / (2 * -2) = 0.25, a finite update the classic method never makes
        pol = PenaltyPolicy(kind="constant-infinity", recovery="shrink")
        pair = CurvaturePair([1.0], [-2.0])
        assert resolve_beta(pol, pair, math.inf) == (0.0, SKIP)

    def test_beta_zero_never_needs_recovery(self):
        pol = PenaltyPolicy(kind="thresholded", step_scale=1.0, threshold=1e6)
        pair = CurvaturePair([1.0], [-5.0])
        beta, action = resolve_beta(pol, pair, 0.0)
        assert (beta, action) == (0.0, UPDATE)


class TestBaselineRules:
    # each rule is what resolve_beta applies at a proposal of +inf, so every
    # case asks both: admitted means (inf, UPDATE), refused (0, SKIP)
    @staticmethod
    def admits(pol, pair):
        ok = baseline_update_ok(pol, pair)
        assert resolve_beta(pol, pair, math.inf) == ((math.inf, UPDATE) if ok else (0.0, SKIP))
        return ok

    def test_nonpositive(self):
        pol = PenaltyPolicy(skip_rule="nonpositive")
        assert self.admits(pol, CurvaturePair([1.0], [2.0]))
        assert not self.admits(pol, CurvaturePair([1.0], [0.0]))
        assert not self.admits(pol, CurvaturePair([1.0], [-2.0]))

    def test_step_norm(self):
        pol = PenaltyPolicy(skip_rule="step-norm", skip_eps=0.5)
        # needs s.y >= eps ||s||^2 = 2
        assert self.admits(pol, CurvaturePair([2.0], [1.1]))
        assert not self.admits(pol, CurvaturePair([2.0], [0.9]))

    def test_cosine(self):
        pol = PenaltyPolicy(skip_rule="cosine", skip_zeta=0.5)
        # needs s.y >= zeta ||s|| ||y||
        ok = CurvaturePair([1.0, 0.0], [1.0, 0.5])
        bad = CurvaturePair([1.0, 0.0], [0.5, 1.0])
        assert self.admits(pol, ok)
        assert not self.admits(pol, bad)

    @pytest.mark.parametrize("pol", [PenaltyPolicy(skip_rule="step-norm", skip_eps=0.5),
                                     PenaltyPolicy(skip_rule="cosine", skip_zeta=0.5)])
    def test_zero_sty_refused_by_every_rule(self, pol):
        # the bounds are 0 too here, yet BFGS is undefined at s.y = 0
        assert not self.admits(pol, CurvaturePair([1.0, 0.0], [0.0, 0.0]))
        assert not self.admits(pol, CurvaturePair([0.0, 0.0], [1.0, 0.0]))


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

    @pytest.mark.parametrize("field, value", [
        ("beta", math.nan), ("beta", -3.0),
        ("scale", math.nan), ("scale", -1.0),
        ("shrink_factor", math.nan), ("shrink_factor", 0.5),
        ("skip_eps", -1.0), ("skip_eps", math.nan),
        ("skip_zeta", math.nan), ("skip_zeta", 2.0),
    ])
    def test_every_field_checked_whatever_the_kind(self, field, value):
        # a linear policy under the defaults (recovery skip, skip_rule
        # nonpositive) uses none of these fields, yet each is checked
        with pytest.raises(ValueError, match=field):
            PenaltyPolicy(kind="linear", **{field: value})


def _pair(entries):
    return CurvaturePair([s for s, _ in entries], [y for _, y in entries])


# entries whose s.y takes both signs, +-0, +-inf, nan and subnormal sizes, and
# whose ||s|| can overflow
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e200,
                                    -1e200, 1.7e308, -1.7e308]),
                   st.floats(allow_nan=False, allow_infinity=False))
_PAIRS = st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=3).map(_pair)
# every field at its validation edges, under each kind, recovery and skip rule
_POLICIES = st.builds(
    lambda kind, rule, **fields: PenaltyPolicy(kind=kind, **rule, **fields),
    kind=st.sampled_from(["constant-infinity", "constant", "linear", "thresholded"]),
    rule=st.sampled_from([{}, dict(skip_rule="step-norm", skip_eps=1e-3),
                          dict(skip_rule="cosine", skip_zeta=0.5)]),
    beta=st.sampled_from([0.0, 5e-324, 1e308, math.inf]),
    step_scale=st.sampled_from([0.0, 1e300]),
    offset=st.sampled_from([0.0, 1e-10, math.inf]),
    threshold=st.sampled_from([0.0, 1.0]),
    recovery=st.sampled_from(["skip", "shrink"]),
    shrink_factor=st.sampled_from([NEXT_AFTER_ONE, 2.0]),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_POLICIES, _PAIRS)
@example(PenaltyPolicy(kind="constant", beta=1e6, recovery="shrink", shrink_factor=NEXT_AFTER_ONE),
         CurvaturePair([1.0], [-4.483654064247673e-05]))
@example(PenaltyPolicy(kind="linear", step_scale=0.0, offset=1.0),
         CurvaturePair([-1e200, -1e200], [-1.0, -1.0]))
@example(PenaltyPolicy(kind="thresholded", step_scale=0.0, offset=1.0),
         CurvaturePair([-1e200, -1e200], [-1.0, -1.0]))
def test_admitted_beta_satisfies_its_condition(pol, pair):
    """An admitted pair's beta satisfies s.y > -1/beta; its scalars overflow at worst."""
    with np.errstate(all="ignore"):  # as the driver runs: ||s|| may overflow
        beta, action = resolve_beta(pol, pair, propose_beta(pol, pair.s))
        if action == SKIP:
            assert beta == 0.0
            return
        assert action == UPDATE and spbfgs_curvature_ok(pair, beta)
        try:
            compute_penalty_scalars(pair, beta)
        except NonFiniteError:
            pass  # a subnormal denominator: the driver skips the pair
