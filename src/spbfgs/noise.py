"""Noisy measurement wrappers around smooth problems.

Function values carry additive noise uniform on [-eps_f, eps_f]; gradients
carry additive noise uniform on the closed euclidean ball of radius eps_g.
Every draw comes from one private Generator, so a run is reproducible from
its seed and its call sequence alone.  Components with a zero noise level
consume no draws and return the smooth value exactly.

The oracle also keeps a noise-free side channel: it records the smallest
true value seen at any evaluated point (phi_best), which is what benchmark
accuracy is measured against, and the true value and true gradient of its
latest measurements (last_phi, last_grad), which the driver's per-iterate
records reuse instead of evaluating the problem again.  A caller that
already holds the true value at x passes it to f(x, phi): the measurement
draws fresh noise and counts as usual, but the problem is not called.
Only function evaluations count toward the optional evaluation budget;
gradient calls are free.

The oracle does not touch numpy's floating-point error state: a caller
that expects overflow (trial points far from a minimizer) enters
np.errstate once around the whole run, as the driver does.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationBudgetError


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded noise levels: eps_f for values, eps_g for gradients."""

    eps_f: float = 0.0
    eps_g: float = 0.0

    def __post_init__(self):
        if not (self.eps_f >= 0.0 and math.isfinite(self.eps_f)):
            raise ValueError(f"eps_f must be finite and >= 0, got {self.eps_f}")
        if not (self.eps_g >= 0.0 and math.isfinite(self.eps_g)):
            raise ValueError(f"eps_g must be finite and >= 0, got {self.eps_g}")
        # as Python floats: run_seed hashes their repr, and the CSVs write it
        object.__setattr__(self, "eps_f", float(self.eps_f))
        object.__setattr__(self, "eps_g", float(self.eps_g))

    @property
    def noiseless(self):
        return self.eps_f == 0.0 and self.eps_g == 0.0


def sample_ball(rng, n, radius):
    """Uniform draw from the closed n-ball of the given radius.

    Direction uniform on the sphere (normalized gaussian), radius scaled as
    radius * U^(1/n).  radius = 0 returns the zero vector without drawing.
    """
    if radius == 0.0:
        return np.zeros(n)
    v = rng.standard_normal(n)
    v /= math.sqrt(float(v.dot(v)))  # np.linalg.norm(v), without its overhead
    return (radius * rng.random() ** (1.0 / n)) * v


class NoisyOracle:
    """Noisy view of a problem, with eval counters and a true-value side channel."""

    def __init__(self, problem, spec, seed, budget_evals=None):
        if budget_evals is not None and budget_evals < 0:
            raise ValueError(f"budget_evals must be >= 0, got {budget_evals}")
        self.problem = problem
        self.spec = spec
        self.rng = np.random.default_rng(seed)  # a Generator is used as is
        self.budget_evals = budget_evals
        self.n_f_evals = 0
        self.n_g_evals = 0
        self.phi_best = math.inf
        self.x_best = None
        self.last_phi = math.nan  # true value at the latest f measurement
        self.last_grad = None  # true gradient at the latest grad measurement

    def f(self, x, phi=None):
        """One noisy function measurement; raises EvaluationBudgetError when spent.

        phi is the true value at x when the caller already has it (a row of
        a stacked evaluation, or the driver's iterate, measured before); the
        problem is then not called.  The measurement is charged, tracked
        and noised exactly as one that calls the problem.
        """
        if self.budget_evals is not None and self.n_f_evals >= self.budget_evals:
            raise EvaluationBudgetError(f"evaluation budget of {self.budget_evals} exhausted")
        self.n_f_evals += 1
        if phi is None:
            phi = self.problem.f(x)
        phi = self.last_phi = float(phi)
        if math.isfinite(phi) and phi < self.phi_best:
            self.phi_best = phi
            self.x_best = np.array(x, dtype=float, copy=True)
        eps_f = self.spec.eps_f
        if eps_f == 0.0:
            return phi
        # the draw rng.uniform(-eps_f, eps_f) makes, low + (high - low) * random(),
        # bit for bit, without its per-call argument handling
        return phi + (-eps_f + (eps_f + eps_f) * self.rng.random())

    def grad(self, x):
        """One noisy gradient measurement (never charged to the budget)."""
        self.n_g_evals += 1
        g = self.last_grad = np.asarray(self.problem.grad(x), dtype=float)
        if self.spec.eps_g == 0.0:
            return g
        return g + sample_ball(self.rng, g.shape[0], self.spec.eps_g)
