"""Quasi-Newton driver for minimization under bounded noise.

One loop serves both methods.  Each iteration measures a fresh noisy value
at the current iterate, backtracks along p = -H g, measures the gradient at
the accepted point, forms the pair (s, y), and updates H: the penalized
update under the configured policy, or the classic BFGS update guarded by
the baseline admission rule.  An exhausted line search keeps the iterate
(alpha = 0, step skipped without consulting the policy) and the iteration
still counts.

The true f is computed once per point.  After a step, the new iterate is
the accepted trial point itself, which the oracle measured last: the
driver takes that array from the oracle rather than forming x + alpha p
again (the same bits), and the fresh measurement there (new noise, one
more evaluation charged) reuses its true value instead of calling the
problem again.  For a problem with a stacked f (Problem.stacked_f), the
line search computes the true values of its trials in blocks as long as
the previous search's trial count; see linesearch.backtrack.  Both leave
every output bitwise as it is with one problem call per measurement.

H is updated in place, with scratch (two n x n arrays and the bool view
the finiteness check writes) allocated once per run, so an iteration
allocates nothing of size n x n.  The kernel keeps a symmetric H exactly
symmetric without a symmetrizing pass, so h0 is checked once, when the run
starts, by the copying update's check of H (a ValueError naming h0 if it
is not n x n, finite and exactly symmetric).  Both methods update H
through spbfgs_update, BFGS at beta = +inf.

Termination is budget-only: a fixed number of iterations, or of noisy
function evaluations (line-search trials included, gradients free).  There
is no gradient-norm stop; with noisy measurements such a test is
meaningless near the noise floor.

The trace records, per iterate, a noise-free side channel (true value and
true gradient norm) that the driver never lets the method itself see.  It
costs no extra evaluation: the oracle keeps the true value and gradient it
last computed, and the records (side channel, trace of H) are built only
when RunConfig.record_iterations is on.  Each iterate's values are kept as
one tuple of Python objects, converted once, when the run ends, to one
packed RECORD_DTYPE row (98 B).  A run without records returns the same
RunTrace counters and best point, with an empty records array.  The whole
run, oracle calls included, executes under np.errstate(all="ignore"):
overflow at trial points far from a minimizer is expected and handled,
not warned about.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import EvaluationBudgetError, NonFiniteError
from .linesearch import LineSearchConfig, backtrack
from .noise import NoiseSpec, NoisyOracle
from .policy import SKIP, UPDATE, PenaltyPolicy, baseline_update_ok, propose_beta, resolve_beta
from .updates import (CurvaturePair, _checked_h_copy, _update_scratch, compute_penalty_scalars,
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
    record_iterations: bool = True  # one row per iterate in RunTrace.records
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
        if self.record_hessian_diagnostics and not self.record_iterations:
            raise ValueError("record_hessian_diagnostics needs record_iterations")


# RunTrace.records holds one row per iterate: the state at x_k, then the step
# taken from it.  Each field that may have no value (no step, or a run that
# stopped first) has a bool <name>_none field marking that, and holds 0
# there, not NaN: s.y can be a real NaN.  action indexes ACTIONS.
ACTIONS = (None, UPDATE, SKIP)
_VALUES = (
    ("k", np.int64),
    ("f_measured", np.float64),  # noisy value measured at x_k at iteration start
    ("phi", np.float64),  # true value (side channel)
    ("grad_norm", np.float64),  # true gradient norm (side channel)
    ("evals", np.int64),  # noisy evaluations charged when the row was written
    ("alpha", np.float64),
    ("f_accepted", np.float64),  # noisy value at the accepted trial
    ("n_trials", np.int64),
    ("beta", np.float64),
    ("sty", np.float64),
    ("action", np.int8),
    ("curvature_failed", np.bool_),
    ("trace_h", np.float64),  # trace of H after this iteration's update
    ("pd_ok", np.bool_),  # only with record_hessian_diagnostics
)
_OPTIONAL = ("alpha", "f_accepted", "n_trials", "beta", "sty", "trace_h", "pd_ok")
# packed, as numpy lays out a field list: 98 B per row
RECORD_DTYPE = np.dtype(list(_VALUES) + [(f"{name}_none", np.bool_) for name in _OPTIONAL])


def _record_array(rows):
    """rows, value tuples in _VALUES order with None for no value, as one RECORD_DTYPE array."""
    records = np.zeros(len(rows), RECORD_DTYPE)
    for (name, _), values in zip(_VALUES, zip(*rows)):
        if name == "action":
            values = [ACTIONS.index(a) for a in values]
        elif name in _OPTIONAL:
            records[f"{name}_none"] = none = [v is None for v in values]
            if any(none):
                values = [0 if v is None else v for v in values]
        records[name] = values
    return records


@dataclass
class RunTrace:
    problem: str
    method: str
    # one RECORD_DTYPE row per iterate; empty without record_iterations
    records: np.ndarray = field(default_factory=lambda: np.zeros(0, RECORD_DTYPE))
    phi_best: float = math.inf
    x_best: Optional[np.ndarray] = None
    n_iterations: int = 0
    n_f_evals: int = 0
    n_g_evals: int = 0
    n_curvature_failures: int = 0
    n_zero_steps: int = 0
    failed: bool = False
    failure: Optional[str] = None


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
    scratch = _update_scratch(n)
    keep_records = config.record_iterations
    rows = []  # one value tuple per iterate, in _VALUES order
    true_f = problem.f if problem.stacked_f else None
    block = 1  # trials the previous line search took: the next one's block size
    failure = None

    def grad_norm():
        # side channel: the true gradient the oracle computed last, at x; the
        # norm is np.linalg.norm's sqrt(g.g) for a 1-d float array
        g_true = oracle.last_grad
        return math.sqrt(float(g_true.dot(g_true)))

    # Trial points far from a minimizer may overflow to inf; the driver and
    # line search treat non-finite values correctly, so don't warn.
    with np.errstate(all="ignore"):
        f_meas = oracle.f(x)  # within any budget: budget_evals is >= 1
        g = oracle.grad(x)
        k = 0
        while True:
            if keep_records:
                state = (k, f_meas, oracle.last_phi, grad_norm())
            # the step's values, None until it has them
            alpha = f_acc = n_trials = beta = sty = action = trace_h = pd_ok = None
            curvature_failed = False
            try:
                if config.budget_iters is not None and k >= config.budget_iters:
                    break
                # ndarray.dot is the BLAS call @ makes, bit for bit, with less overhead
                p = -h.dot(g)
                gdotp = float(g.dot(p))
                try:
                    alpha, f_acc, n_trials = backtrack(oracle.f, x, p, f_meas, gdotp,
                                                       config.linesearch, true_f, block)
                except EvaluationBudgetError:
                    break
                block = n_trials
                # the accepted trial x + alpha p, the point the oracle measured last
                x_new = oracle._last_x if alpha > 0.0 else x
                g_new = oracle.grad(x_new)
                # Each new vector is checked once.  x and g are finite, so a pair
                # s = x_new - x, y = g_new - g that CurvaturePair accepts (finite
                # entries) means a finite x_new and g_new; a zero step keeps x,
                # leaving g_new.
                if not math.isfinite(f_acc):
                    failure = "non-finite state"
                    break
                if alpha == 0.0:
                    if not np.isfinite(g_new).all():
                        failure = "non-finite state"
                        break
                    # exhausted line search: no step, update skipped without
                    # consulting the policy, iteration still counts
                    sty, action = 0.0, SKIP
                    trace.n_zero_steps += 1
                else:
                    try:
                        pair = CurvaturePair(x_new - x, g_new - g)
                    except NonFiniteError:
                        failure = "non-finite state"
                        break
                    sty = pair.sty
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
                    if action == UPDATE:
                        try:
                            spbfgs_update(h, pair, scalars, scratch)
                        except NonFiniteError:
                            failure = "non-finite update"
                            break
                if keep_records:
                    trace_h = float(h.trace())  # the method np.trace calls
                    if config.record_hessian_diagnostics:
                        pd_ok = is_positive_definite(h)
            finally:
                # every way out of the iteration writes its row, once
                if keep_records:
                    rows.append(state + (oracle.n_f_evals, alpha, f_acc, n_trials, beta, sty,
                                         action, curvature_failed, trace_h, pd_ok))
            trace.n_iterations = k + 1
            x, g = x_new, g_new
            k += 1
            try:
                # after a step x is the accepted trial, the oracle's last point
                f_meas = oracle.f(x, oracle.last_phi) if alpha > 0.0 else oracle.f(x)
            except EvaluationBudgetError:
                if keep_records:
                    # the budget ran out before the oracle evaluated x
                    rows.append((k, math.nan, float(problem.f(x)), grad_norm(), oracle.n_f_evals,
                                 None, None, None, None, None, None, False, None, None))
                break
    if failure is not None:
        trace.failed = True
        trace.failure = f"{failure} at iteration {k}"
    trace.records = _record_array(rows)
    trace.phi_best = oracle.phi_best
    trace.x_best = oracle.x_best
    trace.n_f_evals = oracle.n_f_evals
    trace.n_g_evals = oracle.n_g_evals
    return trace


def minimize(problem, config):
    """Minimize with the penalized update under config.policy."""
    return _run(problem, config, method="spbfgs", baseline=False)


def minimize_baseline_bfgs(problem, config):
    """Minimize with the classic update guarded by config.policy.skip_rule."""
    return _run(problem, config, method="bfgs", baseline=True)

