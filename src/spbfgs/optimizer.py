"""Quasi-Newton driver for minimization under bounded noise.

One loop serves both methods.  Each iteration measures a fresh noisy value
at the current iterate, backtracks along p = -H g, measures the gradient at
the accepted point, forms the pair (s, y), and updates H: the penalized
update under the configured policy, or the classic BFGS update guarded by
the baseline admission rule.  An exhausted line search keeps the iterate
(alpha = 0, step skipped without consulting the policy) and the iteration
still counts.

The true f is computed once per point.  After a step, the new iterate is
bitwise the accepted trial point, whose true value the oracle has just
computed, so the fresh measurement there (new noise, one more evaluation
charged) reuses that value instead of calling the problem again.  For a
problem with a stacked f (Problem.stacked_f), the line search computes the
true values of its trials in blocks as long as the previous search's trial
count; see linesearch.backtrack.  Both leave every output bitwise as it is
with one problem call per measurement.

H is updated in place, with two n x n scratch arrays allocated once per
run, so an iteration allocates nothing of size n x n.  The kernel keeps a
symmetric H exactly symmetric without a symmetrizing pass, so h0 is
checked once, when the run starts, by the copying update's check of H
(a ValueError naming h0 if it is not n x n, finite and exactly symmetric).
Both methods update H through spbfgs_update, BFGS at beta = +inf.

Termination is budget-only: a fixed number of iterations, or of noisy
function evaluations (line-search trials included, gradients free).  There
is no gradient-norm stop; with noisy measurements such a test is
meaningless near the noise floor.

The trace records, per iterate, a noise-free side channel (true value and
true gradient norm) that the driver never lets the method itself see.  It
costs no extra evaluation: the oracle keeps the true value and gradient it
last computed, and the records (side channel, copy of x, trace of H) are
built only when RunConfig.record_iterations is on.  A run without records
returns the same RunTrace counters and best point, with an empty records
list.  The whole run, oracle calls included, executes under
np.errstate(all="ignore"): overflow at trial points far from a minimizer
is expected and handled, not warned about.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .errors import EvaluationBudgetError, NonFiniteError
from .linesearch import LineSearchConfig, backtrack
from .noise import NoiseSpec, NoisyOracle
from .policy import SKIP, UPDATE, PenaltyPolicy, baseline_update_ok, propose_beta, resolve_beta
from .updates import (CurvaturePair, _checked_h_copy, compute_penalty_scalars,
                      is_positive_definite, spbfgs_update)


@dataclass(frozen=True)
class RunConfig:
    policy: PenaltyPolicy = PenaltyPolicy(kind="constant-infinity")
    linesearch: LineSearchConfig = LineSearchConfig()
    noise: NoiseSpec = NoiseSpec()
    budget_evals: Optional[int] = None
    budget_iters: Optional[int] = None
    seed: int = 0
    h0: Optional[np.ndarray] = None  # initial inverse approximation, identity when None
    record_iterations: bool = True  # one IterationRecord per iterate in RunTrace.records
    record_hessian_diagnostics: bool = False  # pd_ok on each record; needs record_iterations

    def __post_init__(self):
        # a scaled policy and an unset Armijo slack take this run's noise levels;
        # resolved once, so replace(config, noise=...) keeps the old values
        object.__setattr__(self, "policy", self.policy.resolve(self.noise.eps_g))
        if self.linesearch.eps_armijo is None:
            object.__setattr__(self, "linesearch",
                               replace(self.linesearch, eps_armijo=self.noise.eps_f))
        if self.budget_evals is None and self.budget_iters is None:
            raise ValueError("set budget_evals, budget_iters, or both")
        if self.budget_evals is not None and self.budget_evals < 1:
            raise ValueError(f"budget_evals must be >= 1, got {self.budget_evals}")
        if self.budget_iters is not None and self.budget_iters < 0:
            raise ValueError(f"budget_iters must be >= 0, got {self.budget_iters}")


@dataclass
class IterationRecord:
    """State at iterate k, plus the step taken from it (None fields = no step)."""

    k: int
    x: np.ndarray
    f_measured: float  # noisy value measured at x_k at iteration start
    phi: float  # true value (side channel)
    grad_norm: float  # true gradient norm (side channel)
    evals_so_far: int
    alpha: Optional[float] = None
    f_accepted: Optional[float] = None  # noisy value at the accepted trial
    n_trials: Optional[int] = None
    beta: Optional[float] = None
    sty: Optional[float] = None
    action: Optional[str] = None
    curvature_failed: bool = False
    trace_h: Optional[float] = None  # trace of H after this iteration's update
    pd_ok: Optional[bool] = None  # only with record_hessian_diagnostics


@dataclass
class RunTrace:
    problem: str
    method: str
    records: List[IterationRecord] = field(default_factory=list)  # empty without record_iterations
    phi_best: float = math.inf
    x_best: Optional[np.ndarray] = None
    n_iterations: int = 0
    n_f_evals: int = 0
    n_g_evals: int = 0
    n_curvature_failures: int = 0
    n_zero_steps: int = 0
    failed: bool = False
    failure: Optional[str] = None

    @property
    def final_record(self):
        return self.records[-1]


def _decide(policy, pair, baseline):
    """(beta, action, curvature_failed) for this pair under the method's rule."""
    if baseline:
        if baseline_update_ok(policy, pair):
            return math.inf, UPDATE, False
        return 0.0, SKIP, True
    proposed = propose_beta(policy, pair.s)
    beta, action = resolve_beta(policy, pair, proposed)
    curvature_failed = action == SKIP or beta != proposed
    return beta, action, curvature_failed


def _run(problem, config, method, baseline):
    oracle = NoisyOracle(problem, config.noise, config.seed, config.budget_evals)
    trace = RunTrace(problem=problem.name, method=method)
    n = problem.n
    x = np.array(problem.x0, dtype=float, copy=True)
    h = np.eye(n) if config.h0 is None else _checked_h_copy(config.h0, n, name="h0")
    # the update overwrites h and these, so no iteration allocates an n x n array
    scratch = (np.empty((n, n)), np.empty((n, n)))
    keep_records = config.record_iterations
    rec = None  # the latest record, if any
    true_f = problem.f if problem.stacked_f else None
    block = 1  # trials the previous line search took: the next one's block size

    def state_record(k, f_measured, phi):
        # side channel: the true value and gradient the oracle computed at x;
        # the norm is np.linalg.norm's sqrt(g.g) for a 1-d float array
        g_true = oracle.last_grad
        new = IterationRecord(
            k=k,
            x=x.copy(),
            f_measured=f_measured,
            phi=phi,
            grad_norm=math.sqrt(float(g_true @ g_true)),
            evals_so_far=oracle.n_f_evals,
        )
        trace.records.append(new)
        return new

    def finalize():
        if rec is not None:
            rec.evals_so_far = oracle.n_f_evals
        trace.phi_best = oracle.phi_best
        trace.x_best = oracle.x_best
        trace.n_f_evals = oracle.n_f_evals
        trace.n_g_evals = oracle.n_g_evals
        return trace

    def fail(reason):
        trace.failed = True
        trace.failure = f"{reason} at iteration {k}"
        return finalize()

    # Trial points far from a minimizer may overflow to inf; the driver and
    # line search treat non-finite values correctly, so don't warn.
    with np.errstate(all="ignore"):
        try:
            f_meas = oracle.f(x)
        except EvaluationBudgetError:
            return finalize()
        g = oracle.grad(x)
        k = 0
        while True:
            if keep_records:
                rec = state_record(k, f_meas, oracle.last_phi)
            if config.budget_iters is not None and k >= config.budget_iters:
                break
            p = -(h @ g)
            gdotp = float(g @ p)
            try:
                alpha, f_acc, n_trials = backtrack(oracle.f, x, p, f_meas, gdotp,
                                                   config.linesearch, true_f, block)
            except EvaluationBudgetError:
                break
            block = n_trials
            if keep_records:
                rec.alpha = alpha
                rec.f_accepted = f_acc
                rec.n_trials = n_trials
            if alpha > 0.0:
                x_new = x + alpha * p
            else:
                x_new = x
            g_new = oracle.grad(x_new)
            # Each new vector is scanned once.  x and g are finite, so a finite
            # pair s = x_new - x, y = g_new - g (CurvaturePair checks it) means
            # a finite x_new and g_new; a zero step keeps x, leaving g_new.
            if not math.isfinite(f_acc):
                return fail("non-finite state")
            if alpha == 0.0:
                if not np.isfinite(g_new).all():
                    return fail("non-finite state")
                # exhausted line search: no step, update skipped without
                # consulting the policy, iteration still counts
                if keep_records:
                    rec.sty = 0.0
                    rec.action = SKIP
                trace.n_zero_steps += 1
            else:
                try:
                    pair = CurvaturePair(x_new - x, g_new - g)
                except NonFiniteError:
                    return fail("non-finite state")
                beta, action, curvature_failed = _decide(config.policy, pair, baseline)
                if curvature_failed:
                    trace.n_curvature_failures += 1
                if action == UPDATE:
                    try:
                        scalars = compute_penalty_scalars(pair, beta)
                    except NonFiniteError:
                        # a denominator (s.y, or s.y + 1/beta) so near zero
                        # that its reciprocal overflows: no usable update
                        beta, action = 0.0, SKIP
                if keep_records:
                    rec.beta = beta
                    rec.sty = pair.sty
                    rec.action = action
                    rec.curvature_failed = curvature_failed
                if action == UPDATE:
                    try:
                        spbfgs_update(h, pair, scalars, scratch)
                    except NonFiniteError:
                        return fail("non-finite update")
            if keep_records:
                rec.trace_h = float(h.trace())  # the method np.trace calls
                if config.record_hessian_diagnostics:
                    rec.pd_ok = is_positive_definite(h)
                rec.evals_so_far = oracle.n_f_evals
            trace.n_iterations = k + 1
            x, g = x_new, g_new
            k += 1
            try:
                # after a step x is the accepted trial, the oracle's last point
                f_meas = oracle.f(x, oracle.last_phi) if alpha > 0.0 else oracle.f(x)
            except EvaluationBudgetError:
                if keep_records:
                    # the budget ran out before the oracle evaluated x
                    rec = state_record(k, math.nan, float(problem.f(x)))
                break
    return finalize()


def minimize(problem, config):
    """Minimize with the penalized update under config.policy."""
    return _run(problem, config, method="spbfgs", baseline=False)


def minimize_baseline_bfgs(problem, config):
    """Minimize with the classic update guarded by config.policy.skip_rule."""
    return _run(problem, config, method="bfgs", baseline=True)

