"""Checks connecting runs to the theory that motivates the penalized update.

Covers the a-priori trace bounds on the updated matrices, the noise-floor
neighbourhood for strongly convex problems, the Q-linear decrease envelope
for a fixed-step run outside that neighbourhood, and the scaled condition
number of H against the true Hessian.

A fixed-step run is gradient descent with H = I, run through
optimizer.minimize: PenaltyPolicy(kind="constant", beta=0.0) keeps H = I,
LineSearchConfig(alpha0=alpha, max_backtracks=1, eps_armijo=math.inf)
accepts its one trial whenever its value is finite, budget_iters counts
the steps, and the records' phi are the true values.  At eps_f = 0 the f
measurements draw nothing, so the iterates are bitwise x <- x - alpha
(grad(x) + sample_ball(rng, n, eps_g)) with rng = np.random.default_rng(seed); at
eps_f > 0 the f draws interleave with the gradient draws and they differ.
"""

import math

import numpy as np

from .errors import (
    BadDimensionError,
    CurvatureViolationError,
    DegenerateInputError,
    MissingMetadataError,
)
from .updates import _cholesky_factor

# qlinear_envelope_holds allows each step this relative slack on the gap
_REL_SLACK = 1e-12


def trace_bound_h(h, pair, scalars):
    """Upper bound on trace(H+) available before computing the update:

        (1 + gamma ||y|| ||s||)^2 trace(H) + gamma ||s||^2.

    Valid when the relaxed curvature condition holds (gamma, omega >= 0).
    """
    if scalars.gamma < 0.0 or scalars.omega < 0.0:
        raise CurvatureViolationError("trace bound needs gamma, omega >= 0")
    norm_s = float(np.linalg.norm(pair.s))
    norm_y = float(np.linalg.norm(pair.y))
    tr = float(np.trace(h))
    return (1.0 + scalars.gamma * norm_y * norm_s) ** 2 * tr + scalars.gamma * norm_s ** 2


def trace_bound_b(b, pair, scalars):
    """Upper bound on trace(B+):

        (1 + beta ||y|| ||s||) trace(B) + gamma ||y||^2.

    Infinite (trivially true) at beta = +inf.
    """
    if scalars.gamma < 0.0 or scalars.omega < 0.0:
        raise CurvatureViolationError("trace bound needs gamma, omega >= 0")
    if math.isinf(scalars.beta):
        return math.inf
    norm_s = float(np.linalg.norm(pair.s))
    norm_y = float(np.linalg.norm(pair.y))
    tr = float(np.trace(b))
    return (1.0 + scalars.beta * norm_y * norm_s) * tr + scalars.gamma * norm_y ** 2


def noise_region_threshold(problem, psi, big_psi, eps_g):
    """Value level phi_star + (1/2m) (big_psi eps_g / psi)^2 of the region
    where gradient noise can drown the true gradient.

    psi and big_psi are the eigenvalue bounds psi I <= H <= big_psi I kept
    by the fixed-step scheme; requires the problem's strong convexity
    metadata.
    """
    if problem.strong_convexity is None:
        raise MissingMetadataError(f"problem {problem.name!r} lacks strong convexity constants")
    if not (0.0 < psi <= big_psi):
        raise ValueError(f"need 0 < psi <= big_psi, got {psi}, {big_psi}")
    m = problem.strong_convexity[0]
    return problem.phi_star + 0.5 / m * (big_psi * eps_g / psi) ** 2


def qlinear_envelope_holds(phis, alpha, problem, psi, big_psi, eps_g):
    """Check the per-step decrease envelope for a fixed-step run.

    For every k whose iterate lies strictly outside the noise region
    (phis[k] > threshold) the envelope demands

        phis[k+1] - C <= (1 - alpha psi m) (phis[k] - C),   C = threshold,

    up to a relative slack of 1e-12 of the gap phis[k] - C.  Steps starting
    inside the region are exempt.  Returns (ok, violations) where
    violations lists the offending step indices.
    """
    if problem.strong_convexity is None:
        raise MissingMetadataError(f"problem {problem.name!r} lacks strong convexity constants")
    m = problem.strong_convexity[0]
    c = noise_region_threshold(problem, psi, big_psi, eps_g)
    factor = 1.0 - alpha * psi * m
    phis = np.asarray(phis, dtype=float)
    violations = []
    for k in range(phis.shape[0] - 1):
        if phis[k] <= c:
            continue
        gap = phis[k] - c
        if phis[k + 1] - c > factor * gap + _REL_SLACK * abs(gap):
            violations.append(k)
    return len(violations) == 0, violations


def scaled_condition_number(h, hess_matrix):
    """cond_2 of H * hess(x), via the symmetric product L^T A L with H = L L^T.

    Both H and the Hessian must be positive definite; measures how well H
    preconditions the problem (1 would be a perfect inverse Hessian up to
    scale).  L is updates._cholesky_factor's, so DegenerateInputError is
    raised for H exactly when is_positive_definite(H) is False.  H must be
    square and the Hessian of H's shape (BadDimensionError).
    """
    lower = _cholesky_factor(h)
    if lower is None:
        raise DegenerateInputError("H must be positive definite")
    hess_matrix = np.asarray(hess_matrix, dtype=float)
    if hess_matrix.shape != lower.shape:
        raise BadDimensionError(f"expected a {lower.shape} Hessian, got shape "
                                f"{hess_matrix.shape}")
    vals = np.linalg.eigvalsh(lower.T @ hess_matrix @ lower)
    if vals[0] <= 0.0:
        raise DegenerateInputError(f"Hessian is not positive definite (min scaled eig {vals[0]})")
    return float(vals[-1] / vals[0])
