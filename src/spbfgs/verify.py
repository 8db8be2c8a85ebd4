"""Fast seeded self-checks behind the `spbfgs-bench verify` subcommand.

Each check replays the package's central algebraic guarantees on freshly
generated random instances: the closed-form update against the brute-force
penalized QP, the exact BFGS limit (against BFGS in product form, not the
kernel) and identity limit, positive definiteness exactly on the relaxed
curvature region, the post-update value identity and trace bounds, and
consistency between the direct and inverse update forms.
A check returns the figures it measured and judges nothing; `run_all`
applies the bounds.  The full test suite runs the same functions at larger
counts; this entry point is for quick installation sanity.
"""

import math

import numpy as np

from .diagnostics import trace_bound_b, trace_bound_h
from .oracle import make_weight_matrix, oracle_penalized_qp
from .updates import (
    CurvaturePair,
    bfgs_curvature_ok,
    compute_penalty_scalars,
    is_positive_definite,
    spbfgs_curvature_ok,
    spbfgs_inverse_update,
    spbfgs_update,
)


def random_spd(rng, n, shift=0.5):
    """A A^T + shift I with standard normal A: exactly symmetric, eigenvalues >= shift."""
    a = rng.standard_normal((n, n))
    m = a @ a.T + shift * np.eye(n)
    return 0.5 * (m + m.T)


def random_pair(rng, n, sign=1):
    """A pair with s.y of the requested sign and |s.y| bounded away from 0."""
    while True:
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if float(s @ y) * sign < 0:
            y = -y
        pair = CurvaturePair(s, y)
        if abs(pair.sty) > 0.1:
            return pair


def product_form_bfgs(h, pair):
    """(I - rho s y^T) H (I - rho y s^T) + rho s s^T, rho = 1/s.y: BFGS by matrix products."""
    rho = 1.0 / pair.sty
    v = np.eye(pair.n) - rho * np.outer(pair.y, pair.s)
    return v.T @ h @ v + rho * np.outer(pair.s, pair.s)


def check_oracle_equivalence(seed, n_instances):
    """Worst entry of |closed form - QP oracle| over n_instances x 2 weight matrices."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.choice([2, 3, 4, 6]))
        h = random_spd(rng, n)
        pair = random_pair(rng, n, sign=1)
        beta = float(rng.choice([0.1, 1.0, 10.0, 1000.0]))
        closed = spbfgs_update(h, pair, compute_penalty_scalars(pair, beta))
        for c in (1.0, 3.7):
            ref = oracle_penalized_qp(h, pair, beta, make_weight_matrix(pair, c=c))
            worst = max(worst, float(np.max(np.abs(closed - ref))))
    return worst


def check_limits(seed, n_instances):
    """(worst entry of |beta=inf update - product-form BFGS|, beta=0 updates that differ from H)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    zero_inexact = 0
    for _ in range(n_instances):
        n = int(rng.integers(2, 8))
        h = random_spd(rng, n)
        pair = random_pair(rng, n, sign=1)
        inf_up = spbfgs_update(h, pair, compute_penalty_scalars(pair, math.inf))
        worst = max(worst, float(np.max(np.abs(inf_up - product_form_bfgs(h, pair)))))
        zero_up = spbfgs_update(h, pair, compute_penalty_scalars(pair, 0.0))
        zero_inexact += not np.array_equal(zero_up, h)
    return worst, zero_inexact


def check_pd_iff(seed, n_instances):
    """(mismatches of PD vs s.y > -1/beta, instances inside the region, outside)."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    n_inside = n_outside = 0
    for i in range(n_instances):
        n = int(rng.integers(2, 7))
        h = random_spd(rng, n)
        sign = 1 if i % 2 == 0 else -1
        pair = random_pair(rng, n, sign=sign)
        if bfgs_curvature_ok(pair):
            beta = float(rng.choice([0.1, 1.0, 10.0, 1000.0]))
        else:
            # straddle the boundary -1/s.y, avoiding the factor-2 singularity
            beta = -1.0 / pair.sty * float(rng.choice([0.25, 0.5, 1.5, 3.0]))
        expected = spbfgs_curvature_ok(pair, beta)
        got = is_positive_definite(spbfgs_update(h, pair, compute_penalty_scalars(pair, beta)))
        n_inside += expected
        n_outside += not expected
        mismatches += got != expected
    return mismatches, n_inside, n_outside


def check_identity_and_bounds(seed, n_instances):
    """(worst relative residual of the y.H+y identity, trace-bound violations on H+ and B+)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    for i in range(n_instances):
        n = int(rng.integers(2, 7))
        h = random_spd(rng, n)
        if i % 10 < 7:
            pair = random_pair(rng, n, sign=1)
            beta = float(10.0 ** rng.uniform(-2, 3))
        else:
            # negative curvature but beta inside the admissible region
            pair = random_pair(rng, n, sign=-1)
            beta = -1.0 / pair.sty * float(rng.choice([0.25, 0.5]))
        scalars = compute_penalty_scalars(pair, beta)
        hp = spbfgs_update(h, pair, scalars)
        weight = beta * pair.sty / (1.0 + beta * pair.sty)
        expected = weight * pair.sty + (1.0 - weight) * float(pair.y @ (h @ pair.y))
        got = float(pair.y @ (hp @ pair.y))
        worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        if np.trace(hp) > trace_bound_h(h, pair, scalars) * (1 + 1e-10) + 1e-10:
            violations += 1
        b = np.linalg.inv(h)
        bp = spbfgs_inverse_update(b, pair, scalars)
        if np.trace(bp) > trace_bound_b(b, pair, scalars) * (1 + 1e-10) + 1e-10:
            violations += 1
    return worst, violations


def check_inverse_consistency(seed, n_instances):
    """Worst entry of |H+ B+ - I|, B+ from the inverse-form update of H^{-1}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(2, 7))
        h = random_spd(rng, n, shift=1.0)
        pair = random_pair(rng, n, sign=1)
        beta = float(rng.choice([0.5, 5.0, 500.0]))
        scalars = compute_penalty_scalars(pair, beta)
        hp = spbfgs_update(h, pair, scalars)
        bp = spbfgs_inverse_update(np.linalg.inv(h), pair, scalars)
        worst = max(worst, float(np.max(np.abs(hp @ bp - np.eye(n)))))
    return worst


def _verdicts():
    """(label, ok, detail) per check, each run as it is reached."""
    worst = check_oracle_equivalence(seed=20, n_instances=20)
    yield ("closed form matches the penalized QP oracle", worst <= 1e-8,
           f"max |closed - oracle| = {worst:.3e} over 20 instances x 2 weights")
    worst, zero_inexact = check_limits(seed=21, n_instances=50)
    yield ("beta = +inf is BFGS, beta = 0 is the identity", worst <= 1e-12 and zero_inexact == 0,
           f"max |beta=inf - product-form BFGS| = {worst:.3e}, beta = 0 not exactly H in "
           f"{zero_inexact} of 50 instances")
    mismatches, n_inside, n_outside = check_pd_iff(seed=22, n_instances=200)
    yield ("positive definite exactly on the curvature region", mismatches == 0,
           f"{mismatches} mismatches over 200 instances "
           f"({n_inside} inside the region, {n_outside} outside)")
    worst, violations = check_identity_and_bounds(seed=23, n_instances=200)
    yield ("value identity and trace bounds after update", worst <= 1e-10 and violations == 0,
           f"max value-identity residual = {worst:.3e}, {violations} trace-bound "
           f"violations over 200 instances")
    worst = check_inverse_consistency(seed=24, n_instances=20)
    yield ("inverse-form update consistent with direct form", worst <= 1e-8,
           f"max |H+ B+ - I| = {worst:.3e} over 20 instances")


def run_all(write=print):
    """Run every check, emit one line each; True when all pass."""
    all_ok = True
    for label, ok, detail in _verdicts():
        all_ok &= ok
        write(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")
    return all_ok
