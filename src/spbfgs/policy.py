"""Rules for choosing the penalty strength beta at each iteration.

A policy proposes beta from the step just taken, then resolves what to do
when the relaxed curvature condition s.y > -1/beta fails: either skip the
update (beta -> 0, a no-op) or shrink beta until the condition holds again.
Baseline BFGS admission rules live here too so both methods share one
driver.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .updates import bfgs_curvature_ok, spbfgs_curvature_ok

UPDATE = "update"
SKIP = "skip"

_KINDS = ("constant-infinity", "constant", "linear", "thresholded", "scaled")
_RECOVERIES = ("skip", "shrink")
_SKIP_RULES = ("nonpositive", "step-norm", "cosine")


@dataclass(frozen=True)
class PenaltyPolicy:
    """How beta is proposed, and what to do when curvature fails.

    kinds
        constant-infinity  beta = +inf always (pure BFGS behaviour)
        constant           beta = self.beta
        linear             beta = step_scale * ||s|| + offset
        thresholded        beta = max(step_scale * ||s|| - threshold, 0)
        scaled             linear with step_scale = scale / eps_g, where eps_g
                           is the run's absolute gradient noise; at eps_g = 0
                           it is constant-infinity.  RunConfig resolves it
                           (see resolve), so propose_beta never sees it.

    recovery on curvature failure
        skip    beta -> 0, no update this iteration
        shrink  beta -> -1 / (shrink_factor * s.y), which restores the
                condition whenever s.y < 0 (shrink_factor > 1); falls back
                to skip at s.y = 0

    skip_rule applies only to the baseline BFGS driver, and every rule
    also demands s.y > 0, the classic update's own precondition
        nonpositive  update iff s.y > 0
        step-norm    update iff s.y >= skip_eps * ||s||^2
        cosine       update iff s.y >= skip_zeta * ||s|| * ||y||
    """

    kind: str = "linear"
    beta: float = math.inf
    step_scale: float = 0.0
    offset: float = 0.0
    threshold: float = 0.0
    recovery: str = "skip"
    shrink_factor: float = 2.0
    skip_rule: str = "nonpositive"
    skip_eps: float = 0.0
    skip_zeta: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {_KINDS}")
        if self.recovery not in _RECOVERIES:
            raise ValueError(f"unknown recovery {self.recovery!r}, expected one of {_RECOVERIES}")
        if self.skip_rule not in _SKIP_RULES:
            raise ValueError(f"unknown skip rule {self.skip_rule!r}, expected one of {_SKIP_RULES}")
        # every numeric check is written so that NaN fails it
        if self.kind == "scaled" and not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scaled policy needs finite scale > 0, got {self.scale}")
        if self.kind == "constant" and (math.isnan(self.beta) or self.beta < 0.0):
            raise ValueError(f"constant policy needs beta in [0, +inf], got {self.beta}")
        if not (self.step_scale >= 0.0 and self.offset >= 0.0 and self.threshold >= 0.0):
            raise ValueError("step_scale, offset and threshold must be nonnegative")
        # beta would be nan: inf * ||s|| at a zero step, inf - inf at a long one
        if not (math.isfinite(self.step_scale) and math.isfinite(self.threshold)):
            raise ValueError("step_scale and threshold must be finite, got "
                             f"{self.step_scale} and {self.threshold}")
        if self.recovery == "shrink" and not self.shrink_factor > 1.0:
            raise ValueError(f"shrink_factor must exceed 1, got {self.shrink_factor}")
        if self.skip_rule == "step-norm" and not self.skip_eps > 0.0:
            raise ValueError("step-norm rule needs skip_eps > 0")
        if self.skip_rule == "cosine" and not 0.0 < self.skip_zeta < 1.0:
            raise ValueError("cosine rule needs skip_zeta in (0, 1)")

    def resolve(self, eps_g):
        """The policy a run with absolute gradient noise eps_g applies.

        A scaled policy becomes linear with step_scale = scale / eps_g, or
        constant-infinity when eps_g = 0, where an infinite penalty is the
        right limit; every other kind is returned unchanged.  A quotient
        that overflows (eps_g below scale / max_float) raises ValueError.
        """
        if self.kind != "scaled":
            return self
        if eps_g == 0.0:
            return replace(self, kind="constant-infinity")
        step_scale = self.scale / float(eps_g)
        if not math.isfinite(step_scale):
            raise ValueError(f"scaled policy: scale / eps_g = {self.scale!r} / {eps_g!r} "
                             "overflows")
        return replace(self, kind="linear", step_scale=step_scale)


def propose_beta(policy, s):
    """beta proposed from the step vector s, before any curvature check."""
    if policy.kind == "constant-infinity":
        return math.inf
    if policy.kind == "constant":
        return policy.beta
    norm_s = math.sqrt(float(s.dot(s)))  # np.linalg.norm(s), without its overhead
    if policy.kind == "linear":
        return policy.step_scale * norm_s + policy.offset
    if policy.kind == "thresholded":
        return max(policy.step_scale * norm_s - policy.threshold, 0.0)
    raise ValueError("a scaled policy proposes no beta until resolved against a noise level")


def resolve_beta(policy, pair, proposed):
    """Final (beta, action) after the curvature check and recovery rule.

    The returned beta always satisfies s.y > -1/beta when the action is
    "update"; a "skip" action carries beta = 0.
    """
    if spbfgs_curvature_ok(pair, proposed):
        return proposed, UPDATE
    if policy.recovery == "skip" or pair.sty == 0.0:
        return 0.0, SKIP
    shrunk = -1.0 / (policy.shrink_factor * pair.sty)
    return shrunk, UPDATE


def baseline_update_ok(policy, pair):
    """Baseline BFGS admission test under policy.skip_rule.

    s.y = 0 is refused under every rule: with a zero step or gradient change
    the step-norm and cosine bounds are 0 too and would admit it, and the
    BFGS update is undefined there.
    """
    if not bfgs_curvature_ok(pair):
        return False
    if policy.skip_rule == "nonpositive":
        return True
    if policy.skip_rule == "step-norm":
        return pair.sty >= policy.skip_eps * float(pair.s.dot(pair.s))
    return pair.sty >= policy.skip_zeta * float(np.linalg.norm(pair.s) * np.linalg.norm(pair.y))
