"""Brute-force reference solution of the penalized least-change problem.

The penalized update is the unique symmetric minimizer of

    (1/2) || Wh (Z - H) Wh ||_F^2  +  (beta/2) || Wh (Z y - s) ||_2^2,

where Wh = W^{1/2} for any symmetric positive definite weight W satisfying
W s = y.  This module solves that problem numerically by vectorizing the
upper triangle of Z into n(n+1)/2 unknowns and solving one dense least
squares problem in extended precision.  It shares no code or coefficients
with the closed form in updates.py; tests use it as an independent route
to the same matrix.

The minimizer does not depend on which admissible W is supplied, which
tests exercise by solving with two different weight constructions.
"""

import math

import numpy as np

from .errors import (
    BadDimensionError,
    DegenerateInputError,
    SingularSystemError,
)
from .updates import bfgs_curvature_ok


def make_weight_matrix(pair, c=1.0):
    """A symmetric positive definite W with W s = y, namely

        W = y y^T / s.y + c (I - s s^T / s.s),   c > 0.

    Requires s.y > 0 (raises DegenerateInputError otherwise).  Any c > 0
    gives an admissible weight, so two different values of c provide
    genuinely different W for independence checks.
    """
    if c <= 0.0 or not math.isfinite(c):
        raise DegenerateInputError(f"c must be a positive finite number, got {c}")
    s, y = pair.s, pair.y
    sts = float(s @ s)
    if sts == 0.0:
        raise DegenerateInputError("s must be nonzero")
    if not bfgs_curvature_ok(pair):
        raise DegenerateInputError(f"weight construction needs s.y > 0, got {pair.sty}")
    n = pair.n
    w = np.outer(y, y) / pair.sty + c * (np.eye(n) - np.outer(s, s) / sts)
    return 0.5 * (w + w.T)


def _sqrtm_spd(w):
    """Symmetric square root of an SPD matrix via its eigendecomposition."""
    vals, vecs = np.linalg.eigh(w)
    if vals[0] <= 0.0:
        raise DegenerateInputError(f"weight matrix is not positive definite (min eig {vals[0]})")
    return (vecs * np.sqrt(vals)) @ vecs.T


def _lstsq_extended(a, b):
    """Dense least squares by Householder QR in extended precision.

    The penalized objective can be extremely flat along its worst-conditioned
    direction, so locating the argmin to certification accuracy needs more
    than double precision; LAPACK (and so numpy.linalg) only factors in
    float64, hence this small direct implementation.  Sizes here are tiny
    (n(n+1)/2 <= a few dozen unknowns).  b may be a vector or a matrix of
    stacked right-hand sides; the result stays in extended precision.
    """
    r = np.array(a, dtype=np.longdouble)
    vector = np.ndim(b) == 1
    q_tb = np.atleast_2d(np.array(b, dtype=np.longdouble).T).T.copy()
    m, n = r.shape
    for k in range(n):
        col = r[k:, k]
        norm = np.sqrt(np.sum(col * col))
        if norm == 0.0:
            raise SingularSystemError(f"least squares design is rank deficient (column {k})")
        v = col.copy()
        v[0] += np.copysign(norm, col[0])
        scale = 2.0 / np.sum(v * v)
        r[k:, k:] -= scale * np.outer(v, v @ r[k:, k:])
        q_tb[k:] -= scale * np.outer(v, v @ q_tb[k:])
    diag = np.abs(np.diagonal(r)[:n])
    if np.min(diag) <= 1e-16 * np.max(diag):
        raise SingularSystemError(f"least squares design is rank deficient "
                                  f"(diagonal ratio {np.min(diag) / np.max(diag):.3e})")
    x = np.zeros((n, q_tb.shape[1]), dtype=np.longdouble)
    for k in range(n - 1, -1, -1):
        x[k] = (q_tb[k] - r[k, k + 1:] @ x[k + 1:]) / r[k, k]
    return x[:, 0] if vector else x


def _secant_exact_weight(w, s, y):
    """Lift W to extended precision and restore W s = y exactly.

    The float64 construction of W rounds, leaving a ~1e-15 residual in
    W s - y; the flat directions of the penalized objective can amplify
    that into argmin shifts far above certification accuracy.  A symmetric
    rank-two correction with C s = y - W s removes the violation without
    disturbing W beyond the rounding it already carries.
    """
    w = np.array(w, dtype=np.longdouble)
    s = np.asarray(s, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    r = y - w @ s
    t = s / np.sum(s * s)
    w += np.outer(r, t) + np.outer(t, r) - float(r @ s) * np.outer(t, t)
    return 0.5 * (w + w.T)


def _sqrtm_extended(w_ld):
    """Extended-precision principal square root of an SPD matrix.

    Seeds with the float64 eigendecomposition root and applies Newton steps
    in incremental form, solving the Lyapunov linearization
    X D + D X = W - X^2 for a symmetric correction D.  Unlike the textbook
    iteration X <- (X + X^{-1} W) / 2, this form does not amplify
    non-commuting rounding errors on ill-conditioned W.
    """
    x = _sqrtm_spd(np.asarray(w_ld, dtype=float)).astype(np.longdouble)
    n = x.shape[0]
    expand = _expand_matrix(n).astype(np.longdouble)
    eye = np.eye(n, dtype=np.longdouble)
    iu = np.triu_indices(n)
    for _ in range(2):
        resid = w_ld - x @ x
        lyap = (np.kron(eye, x) + np.kron(x, eye)) @ expand
        upper = _lstsq_extended(lyap, resid.reshape(-1))
        d = np.zeros((n, n), dtype=np.longdouble)
        d[iu] = upper
        d.T[iu] = upper
        x = x + d
    return x


def _expand_matrix(n):
    """The n^2 x n(n+1)/2 map from stacked upper-triangle entries to vec(Z)."""
    rows_i, cols_j = np.triu_indices(n)
    m = rows_i.shape[0]
    p = np.zeros((n * n, m))
    for k in range(m):
        i, j = rows_i[k], cols_j[k]
        p[i * n + j, k] = 1.0
        if i != j:
            p[j * n + i, k] = 1.0
    return p


def oracle_penalized_qp(h, pair, beta, w):
    """Numerically minimize the penalized least-change objective.

    beta must be finite and >= 0; beta = 0 returns H itself (the penalty
    term vanishes and H minimizes the least-change term).  Solved in
    square-root form, stacking sqrt of each term into one dense least
    squares problem, factored in extended precision because the objective
    can be too flat for a float64 solve to locate the argmin at the
    accuracy the tests certify.  Use only in tests and `verify`: the cost
    is O(n^6).
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"oracle requires finite beta >= 0, got {beta}")
    n = pair.n
    h = np.asarray(h, dtype=float)
    w = np.asarray(w, dtype=float)
    if h.shape != (n, n) or w.shape != (n, n):
        raise BadDimensionError(f"H and W must be {n}x{n}, got {h.shape} and {w.shape}")
    h = 0.5 * (h + h.T)  # vech(H) below assumes exact symmetry
    # the W-independence premise needs W s = y; reject grossly violating weights
    ws_err = np.linalg.norm(w @ pair.s - pair.y)
    if ws_err > 1e-6 * (1.0 + np.linalg.norm(pair.y)):
        raise DegenerateInputError(f"W s != y (residual {ws_err:.3e})")
    # rounding already inside the supplied W would otherwise be amplified by
    # the flat directions of the objective, so restore the premise exactly
    w_half = _sqrtm_extended(_secant_exact_weight(w, pair.s, pair.y))
    expand = _expand_matrix(n).astype(np.longdouble)
    sqrt_beta = np.sqrt(np.longdouble(beta))
    # || Wh (Z - H) Wh ||_F stacks as (Wh kron Wh) (vec Z - vec H)
    frob_block = np.kron(w_half, w_half) @ expand
    # (Z y)_i in vech coordinates: rows of kron(I, y^T) composed with expand
    zy = np.kron(np.eye(n, dtype=np.longdouble), pair.y[None, :]) @ expand
    secant_block = sqrt_beta * (w_half @ zy)
    design = np.vstack([frob_block, secant_block])
    target = np.concatenate([
        frob_block @ h[np.triu_indices(n)],
        sqrt_beta * (w_half @ pair.s),
    ])
    sol = _lstsq_extended(design, target)
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("penalized QP solution is non-finite")
    out = np.zeros((n, n))
    iu = np.triu_indices(n)
    out[iu] = sol
    out.T[iu] = sol
    return out
