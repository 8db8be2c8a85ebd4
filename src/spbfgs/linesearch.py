"""Backtracking line search with a noise-relaxed Armijo test.

With noisy function values the plain sufficient-decrease test can reject
every step, so the acceptance threshold is loosened by twice the noise
allowance eps_armijo:

    f(x + alpha p) <= f(x) + c1 alpha g.p + 2 eps_armijo.

max_backtracks counts trials: alpha runs over alpha0 * tau^j for
j = 0 .. max_backtracks-1 and exhaustion returns alpha = 0 (the iteration
still counts, no step is taken).
"""

import math
from dataclasses import dataclass
from typing import Optional


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


def backtrack(eval_f, x, p, f_ref, gdotp, cfg):
    """Geometric backtracking from alpha0.

    eval_f is charged once per trial (budget accounting happens inside the
    oracle it wraps).  Returns (alpha, f_new, n_trials); exhaustion gives
    (0.0, f_ref, max_backtracks).
    """
    alpha = cfg.alpha0
    for trial in range(1, cfg.max_backtracks + 1):
        f_trial = eval_f(x + alpha * p)
        if armijo_ok(f_trial, f_ref, alpha, gdotp, cfg):
            return alpha, f_trial, trial
        alpha *= cfg.tau
    return 0.0, f_ref, cfg.max_backtracks
