"""Backtracking line search with a noise-relaxed Armijo test.

With noisy function values the plain sufficient-decrease test can reject
every step, so the acceptance threshold is loosened by twice the noise
allowance eps_armijo:

    f(x + alpha p) <= f(x) + c1 alpha g.p + 2 eps_armijo.

max_backtracks counts trials: alpha runs over alpha0 * tau^j for
j = 0 .. max_backtracks-1 and exhaustion returns alpha = 0 (the iteration
still counts, no step is taken).

For a problem whose f evaluates stacked points, the true values of the
next `block` trial points can be computed in one call and then measured
one at a time, in order, until one is accepted.  The trials consumed, their
noise draws and the result are those of the one-at-a-time search; rows
past the accepted one cost one stacked evaluation and nothing else.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LineSearchConfig:
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


def armijo_ok(f_trial, f_ref, alpha, gdotp, cfg):
    """Relaxed sufficient-decrease test; False for non-finite trial values."""
    return f_trial <= f_ref + cfg.c1 * alpha * gdotp + 2.0 * cfg.eps_armijo


def backtrack(eval_f, x, p, f_ref, gdotp, cfg, true_f=None, block=1):
    """Geometric backtracking from alpha0.

    eval_f is charged once per trial (budget accounting happens inside the
    oracle it wraps).  Returns (alpha, f_new, n_trials); exhaustion gives
    (0.0, f_ref, max_backtracks).

    With true_f (a problem's stacked f) and block > 1, the trial points are
    formed block at a time as one (block, n) array, true_f gives their true
    values in one call, and eval_f(x_j, phi_j) measures them in order; a
    block with no accepted row is followed by another of the same size.
    Each trial point and alpha is bitwise the one the plain loop forms.
    """
    alpha = cfg.alpha0
    if true_f is None or block <= 1:
        for trial in range(1, cfg.max_backtracks + 1):
            f_trial = eval_f(x + alpha * p)
            if armijo_ok(f_trial, f_ref, alpha, gdotp, cfg):
                return alpha, f_trial, trial
            alpha *= cfg.tau
        return 0.0, f_ref, cfg.max_backtracks
    trial = 0
    while trial < cfg.max_backtracks:
        alphas = []
        for _ in range(min(block, cfg.max_backtracks - trial)):
            alphas.append(alpha)
            alpha *= cfg.tau
        points = x + np.array(alphas)[:, None] * p
        phis = true_f(points)
        for alpha_j, x_j, phi_j in zip(alphas, points, phis):
            trial += 1
            f_trial = eval_f(x_j, phi_j)
            if armijo_ok(f_trial, f_ref, alpha_j, gdotp, cfg):
                return alpha_j, f_trial, trial
    return 0.0, f_ref, cfg.max_backtracks
