"""Rules for choosing the penalty strength beta at each iteration.

A policy proposes beta from the step just taken, then resolve_beta decides
whether the pair is admitted.  It is the only code that admits a pair, for
both methods: classic BFGS is the penalized method at beta = +inf.  A
proposal of +inf is admitted by the policy's skip rule (the classic
admission tests) and skipped otherwise.  A finite proposal is admitted when
the relaxed curvature condition s.y > -1/beta holds; when it fails, the
recovery rule either skips the update (beta -> 0, a no-op) or shrinks beta
until the condition holds again.
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
        constant-infinity  beta = +inf always: classic BFGS, admitted by
                           skip_rule (minimize_baseline_bfgs runs this kind)
        constant           beta = self.beta
        linear             beta = step_scale * ||s|| + offset
        thresholded        beta = max(step_scale * ||s|| - threshold, 0)
        scaled             linear with step_scale = scale / eps_g, where eps_g
                           is the run's absolute gradient noise; at eps_g = 0
                           it is constant-infinity.  RunConfig resolves it
                           (see resolve), so propose_beta never sees it.

    recovery on curvature failure of a finite beta
        skip    beta -> 0, no update this iteration
        shrink  beta -> -1 / (shrink_factor * s.y) where s.y < 0, which
                restores the condition in exact arithmetic (shrink_factor
                > 1); skips when the shrunk beta would not satisfy
                s.y > -1/beta

    skip_rule admits every beta = +inf proposal, whichever method makes
    it; a pair it refuses is skipped, since shrink's beta would be negative
    for a refused pair with s.y > 0.  Every rule also demands s.y > 0, the
    classic update's own precondition
        nonpositive  update iff s.y > 0
        step-norm    update iff s.y >= skip_eps * ||s||^2
        cosine       update iff s.y >= skip_zeta * ||s|| * ||y||

    Every field is checked whatever the kind: beta in [0, +inf]; scale
    finite and >= 0; step_scale, offset and threshold >= 0, step_scale and
    threshold finite; shrink_factor > 1; skip_eps finite and >= 0;
    skip_zeta in [0, 1).  A kind or rule that uses a field may ask more.
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
        if not self.beta >= 0.0:
            raise ValueError(f"beta must lie in [0, +inf], got {self.beta}")
        if not (self.scale >= 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        if self.kind == "scaled" and not self.scale > 0.0:
            raise ValueError(f"scaled policy needs scale > 0, got {self.scale}")
        if not (self.step_scale >= 0.0 and self.offset >= 0.0 and self.threshold >= 0.0):
            raise ValueError("step_scale, offset and threshold must be nonnegative")
        # beta would be nan: inf * ||s|| at a zero step, inf - inf at a long one
        if not (math.isfinite(self.step_scale) and math.isfinite(self.threshold)):
            raise ValueError("step_scale and threshold must be finite, got "
                             f"{self.step_scale} and {self.threshold}")
        if not self.shrink_factor > 1.0:
            raise ValueError(f"shrink_factor must exceed 1, got {self.shrink_factor}")
        if not (self.skip_eps >= 0.0 and math.isfinite(self.skip_eps)):
            raise ValueError(f"skip_eps must be finite and >= 0, got {self.skip_eps}")
        if self.skip_rule == "step-norm" and not self.skip_eps > 0.0:
            raise ValueError("step-norm rule needs skip_eps > 0")
        if not 0.0 <= self.skip_zeta < 1.0:
            raise ValueError(f"skip_zeta must lie in [0, 1), got {self.skip_zeta}")
        if self.skip_rule == "cosine" and not self.skip_zeta > 0.0:
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
    # step_scale * ||s||, with ||s|| as np.linalg.norm(s) without its overhead.
    # A zero step_scale is the term itself (its product with any finite norm),
    # so a norm that overflows does not make the term 0 * inf = nan
    step = policy.step_scale and policy.step_scale * math.sqrt(float(s.dot(s)))
    if policy.kind == "linear":
        return step + policy.offset
    if policy.kind == "thresholded":
        return max(step - policy.threshold, 0.0)
    raise ValueError("a scaled policy proposes no beta until resolved against a noise level")


def resolve_beta(policy, pair, proposed):
    """Final (beta, action) for the pair: the only code that admits one.

    At proposed = +inf (classic BFGS) policy.skip_rule admits the pair
    through baseline_update_ok, and a pair it refuses is skipped whatever
    the recovery.  A finite proposal is admitted when s.y > -1/beta, and
    otherwise goes to policy.recovery: shrink, where s.y < 0, admits
    -1 / (shrink_factor * s.y) only if that beta satisfies s.y > -1/beta in
    floating point (a shrink_factor next to 1 can round s.y + 1/beta to 0),
    and skips when it would not.  The returned beta always satisfies
    s.y > -1/beta when the action is "update"; a "skip" action carries
    beta = 0.
    """
    if proposed == math.inf:
        return (math.inf, UPDATE) if baseline_update_ok(policy, pair) else (0.0, SKIP)
    if spbfgs_curvature_ok(pair, proposed):
        return proposed, UPDATE
    if policy.recovery == "shrink" and pair.sty < 0.0:
        shrunk = -1.0 / (policy.shrink_factor * pair.sty)
        if spbfgs_curvature_ok(pair, shrunk):
            return shrunk, UPDATE
    return 0.0, SKIP


def baseline_update_ok(policy, pair):
    """Classic BFGS admission test under policy.skip_rule (resolve_beta's, at +inf).

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
