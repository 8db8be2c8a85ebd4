"""Backtracking line search with a noise-relaxed Armijo test.

With noisy function values the plain sufficient-decrease test can reject
every step, so the acceptance threshold is loosened by twice the noise
allowance eps_armijo:

    f(x + alpha p) <= f(x) + c1 alpha g.p + 2 eps_armijo.

The trial steps are those of LineSearchConfig.steps, the one definition of
the schedule; a search that exhausts them returns alpha = 0 (the iteration
still counts, no step is taken).  A non-finite trial value never passes.

For a problem whose f evaluates stacked points, the true values of the
next `block` trial points can be computed in one call and then measured
one at a time, in order, until one is accepted.  The trials consumed, their
noise draws and the result are those of the one-at-a-time search; rows
past the accepted one cost one stacked evaluation and nothing else.
"""

import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LineSearchConfig:
    """Settings of one backtracking search, and its step schedule.

    The schedule, steps(), is alpha0 followed by each previous step times
    tau (alpha0 * tau^j by repeated multiplication), at most max_backtracks
    steps.  It ends before the first step that underflows to 0.0, since a
    trial at alpha = 0 would re-measure x itself.
    """

    alpha0: float = 1.0
    tau: float = 0.5
    c1: float = 1e-4
    eps_armijo: Optional[float] = 0.0  # None: the run's eps_f, resolved by RunConfig
    max_backtracks: int = 45

    def __post_init__(self):
        if not (self.alpha0 > 0.0 and math.isfinite(self.alpha0)):
            raise ValueError(f"alpha0 must be positive and finite, got {self.alpha0}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if self.eps_armijo is not None and not self.eps_armijo >= 0.0:
            raise ValueError(f"eps_armijo must be >= 0, got {self.eps_armijo}")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be >= 1, got {self.max_backtracks}")

    def steps(self):
        """Yield the schedule's steps one at a time, as a search consumes them."""
        alpha = self.alpha0
        for _ in range(self.max_backtracks):
            yield alpha
            alpha *= self.tau
            if alpha == 0.0:
                return


def armijo_ok(f_trial, f_ref, alpha, gdotp, cfg):
    """Relaxed sufficient-decrease test; False for non-finite trial values."""
    # finiteness first: -inf passes the comparison, and so does +inf at eps_armijo = inf
    return math.isfinite(f_trial) and f_trial <= f_ref + cfg.c1 * alpha * gdotp \
        + 2.0 * cfg.eps_armijo


def backtrack(eval_f, x, p, f_ref, gdotp, cfg, true_f=None, block=1):
    """Backtracking over cfg.steps(), in order, until a trial passes armijo_ok.

    eval_f is charged once per trial (budget accounting happens inside the
    oracle it wraps).  Returns (alpha, x_new, f_new, n_trials), x_new the
    accepted trial array; exhaustion of the schedule gives
    (0.0, x, f_ref, n_trials), n_trials the number of steps it held.

    With true_f (a problem's stacked f) and block > 1, the trial points are
    formed block at a time as one (block, n) array, true_f gives their true
    values in one call, and eval_f(x_j, phi_j) measures them in order; a
    block with no accepted row is followed by the next block of steps.
    Each trial point and alpha is bitwise the one the plain loop forms.
    """
    trial = 0
    steps = cfg.steps()
    if true_f is None or block <= 1:
        for trial, alpha in enumerate(steps, 1):
            x_trial = x + alpha * p
            f_trial = eval_f(x_trial)
            if armijo_ok(f_trial, f_ref, alpha, gdotp, cfg):
                return alpha, x_trial, f_trial, trial
    else:
        while alphas := list(islice(steps, block)):
            points = x + np.array(alphas)[:, None] * p
            for alpha, x_j, phi_j in zip(alphas, points, true_f(points)):
                trial += 1
                f_trial = eval_f(x_j, phi_j)
                if armijo_ok(f_trial, f_ref, alpha, gdotp, cfg):
                    return alpha, x_j, f_trial, trial
    return 0.0, x, f_ref, trial
