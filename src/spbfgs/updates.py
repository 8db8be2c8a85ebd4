"""Quasi-Newton rank-two updates with a secant penalty.

The central object is the inverse Hessian approximation H.  Instead of
forcing the secant equation H y = s exactly, the penalized update charges
deviations from it at a strength beta in [0, +inf] and blends the classic
BFGS map with the identity map through two scalars

    gamma = 1 / (s.y + 1/beta),    omega = 1 / (s.y + 2/beta),

giving

    H+ = (I - omega s y^T) H (I - omega y s^T)
         + (gamma + omega (gamma - omega) y^T H y) s s^T.

beta = +inf recovers BFGS exactly (gamma = omega = 1/s.y) and beta = 0
returns H unchanged.  Positive definiteness is preserved iff

    s.y > -1/beta,

a strictly weaker requirement than the BFGS curvature condition s.y > 0,
which is what makes the update usable when the measured gradients carry
bounded noise.

The form actually computed is algebraically identical.  It takes the
expanded form

    H+ = H - omega (s (Hy)^T + (Hy) s^T) + gamma (1 + omega y.Hy) s s^T

and folds its vector terms into one vector u:

    H+ = H + s u^T + u s^T,    u = (gamma (1 + omega y.Hy) / 2) s - omega Hy.

One kernel computes it in place, into H, with caller-owned scratch (two
n x n float arrays and a bool view of the second, made once per run by
_update_scratch), so a call allocates nothing of size n x n: one
two-term einsum "ki,kj->ij" over the rows (s, u) and (u, s) writes
s u^T + u s^T, and one add puts it into H.  einsum zero-fills its output
and adds the k = 0 and k = 1 products in turn, so each entry is
fl(fl(s_i u_j) + fl(u_i s_j)) and a -0 product comes out +0.  A numpy
build whose einsum loops contract that sum to a fused multiply-add
rounds it once instead; _einsum_rounds_each_term finds out at import, and
on such a build the kernel forms the two products as single-term einsums
and adds them, which gives the same bytes.  Only spbfgs_update calls it,
with the driver's H and scratch or, without scratch, on a checked copy of
H; bfgs_update is spbfgs_update at beta = +inf.  H must be finite and
exactly symmetric, and then so is the result: entry (i, j) of
s u^T + u s^T is s_i u_j + u_i s_j and entry (j, i) is s_j u_i + u_j s_i,
the same two IEEE products added in the other order.  One check,
_checked_h_copy, enforces this where H enters (the driver's h0, the
copying public path), not on every result.

A direct update of the Hessian approximation B = H^{-1} is provided for
diagnostics; the driver itself only maintains H.  _cholesky_factor is the
one test of positive definiteness.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDimensionError,
    CurvatureViolationError,
    DegenerateInputError,
    NonFiniteError,
    SingularDenominatorError,
)

# float64 machine epsilon, 2**-52; see _cholesky_factor
_EPS = float(np.finfo(float).eps)


def _einsum_rounds_each_term():
    """True when this numpy's two-term einsum "ki,kj->ij" rounds each product and then the sum.

    It must give, bitwise, np.outer(s, u) + np.outer(u, s) on two inputs.
    The pinned pair's (0, 1) entry is 0x1.2f7d4759c92d6p+1 rounded twice;
    a fused multiply-add, in either k order, gives ...d7p+1 on one side of
    the diagonal.  The second input, s = sqrt(2..68) and u the same values
    reversed, has 4,489 entries, 645 of which a fused einsum changes.  Run
    once at import (~40-65 us); np.random is not touched, so importing the
    package does not import numpy.random.
    """
    pinned_s = np.array([float.fromhex("0x1.6396041cdeaccp+0"),
                         float.fromhex("0x1.f5c78d11084c8p-1")])
    pinned_u = np.array([float.fromhex("0x1.0bc23db8e44dap+0"),
                         float.fromhex("0x1.f0218da8c73dap-1")])
    roots = np.sqrt(np.arange(2.0, 69.0))
    for s, u in ((pinned_s, pinned_u), (roots, roots[::-1])):
        fused = np.einsum("ki,kj->ij", (s, u), (u, s), optimize=False)
        if not np.array_equal(fused, np.outer(s, u) + np.outer(u, s)):
            return False
    return True


# whether _penalized_rank_two_update forms s u^T + u s^T in one einsum call
_TWO_TERM_EINSUM = _einsum_rounds_each_term()


def _penalized_rank_two_update(h, s, y, gamma, omega, a, b):
    """Overwrite h with H + s u^T + u s^T, u = (gamma*(1 + omega*y.Hy)/2) s - omega Hy.

    That is H - omega*(s(Hy)^T + (Hy)s^T) + gamma*(1 + omega*y.Hy) ss^T.
    a and b are n x n float scratch arrays, distinct from h and from each
    other; both may be clobbered.  For symmetric h the result is exactly
    symmetric, with no symmetrizing pass: s_i u_j + u_i s_j and
    s_j u_i + u_j s_i are the same two IEEE products, added in the other order.

    s u^T + u s^T is one two-term einsum "ki,kj->ij" over the rows (s, u)
    and (u, s): it zero-fills a, then adds the k = 0 and k = 1 products,
    each rounded, so every entry is fl(fl(s_i u_j) + fl(u_i s_j)) and a
    product of -0 comes out +0.  At n = 256 that is ~1.8x faster than two
    products and a sum.  Where _einsum_rounds_each_term found that einsum
    rounds the sum once (a fused multiply-add, which would change the bytes
    and break the exact symmetry above), the products are two single-term
    einsums "i,j->ij" into a and b, and a += b adds them: the same bytes.
    """
    # ndarray.dot is the BLAS call @ makes, bit for bit, without matmul's ufunc overhead
    hy = h.dot(y)
    yhy = float(y.dot(hy))
    coef = gamma * (1.0 + omega * yhy)
    u = (0.5 * coef) * s - omega * hy
    if _TWO_TERM_EINSUM:
        np.einsum("ki,kj->ij", (s, u), (u, s), out=a, optimize=False)
    else:
        # adding a's transposed view instead of b is slower at large n
        np.einsum("i,j->ij", s, u, out=a)
        np.einsum("i,j->ij", u, s, out=b)
        a += b
    h += a


def _cholesky_factor(a):
    """The lower Cholesky factor L of a, or None: the one test of positive definiteness.

    a must be square (BadDimensionError).  It is positive definite when
    max_i a_ii is positive and finite, np.linalg.cholesky factors it, and
    every pivot L_kk^2 exceeds n * eps * max_i a_ii: rounding moves a pivot
    by about n * eps of it, so one within that of zero is not told from
    zero, at any scale of a.  Only the lower triangle is read.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return a
    scale = float(a.diagonal().max())
    if not (math.isfinite(scale) and scale > 0.0):
        return None
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    pivots = lower.diagonal()
    return lower if (pivots * pivots > n * _EPS * scale).all() else None


def is_positive_definite(a):
    """True iff a's Cholesky pivots all exceed n * eps * max_i a_ii; see _cholesky_factor."""
    return _cholesky_factor(a) is not None


@dataclass(frozen=True)
class CurvaturePair:
    """Step s = x+ - x and gradient change y = g+ - g, with s.y cached.

    s and y must be 1-d float vectors of equal length (BadDimensionError)
    with finite entries (NonFiniteError).  s.y is computed first, and the
    entries are scanned only when it is not finite: a non-finite entry
    always makes s.y non-finite (inf * 0 and inf - inf are nan, inf times a
    nonzero number is inf, and nan propagates), so a finite s.y vouches for
    every entry.  Finite entries whose s.y overflows are accepted, with sty
    the inf or nan the sum gives.
    """

    s: np.ndarray
    y: np.ndarray
    sty: float = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if s.ndim != 1 or s.shape != y.shape:
            raise BadDimensionError("s and y must be 1-d arrays of equal length")
        # np.vdot of two 1-d float vectors is s @ y's BLAS dot, bit for bit, but
        # checks no floating-point flags: outside np.errstate, entries about to
        # be rejected warn of nothing (s @ y would warn "invalid value")
        sty = float(np.vdot(s, y))
        if not math.isfinite(sty) and not (np.isfinite(s).all() and np.isfinite(y).all()):
            raise NonFiniteError("curvature pair contains non-finite entries")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sty", sty)

    @property
    def n(self):
        return self.s.shape[0]


class PenaltyScalars(NamedTuple):
    """Penalty strength beta and the derived update coefficients gamma, omega.

    A named tuple: immutable, and cheap to build once per update.
    """

    beta: float
    gamma: float
    omega: float


def bfgs_curvature_ok(pair):
    """Classic curvature condition s.y > 0."""
    return pair.sty > 0.0


def _bad_beta(beta):
    return ValueError(f"beta must lie in [0, +inf], got {beta}")


def spbfgs_curvature_ok(pair, beta):
    """Relaxed curvature condition s.y > -1/beta.

    Always true at beta = 0; reduces to s.y > 0 at beta = +inf.  A beta
    outside [0, +inf] (negative or nan) raises ValueError.
    """
    if beta > 0.0:
        # -1.0/inf == -0.0, so beta=+inf demands sty strictly positive
        return pair.sty > -1.0 / beta
    if beta == 0.0:
        return True
    raise _bad_beta(beta)


def compute_penalty_scalars(pair, beta):
    """Scalars (beta, gamma, omega) driving the penalized update.

    Limits are exact: beta = 0 gives gamma = omega = 0 (update is a no-op)
    and beta = +inf gives gamma = omega = 1/s.y (update is BFGS).  The
    curvature condition is NOT enforced here; a pair with s.y <= -1/beta
    yields well-defined scalars whose update simply fails to stay positive
    definite.  Exactly-zero denominators raise SingularDenominatorError;
    coefficients that overflow (a subnormal denominator) raise
    NonFiniteError; a beta outside [0, +inf] raises ValueError.
    """
    if not beta > 0.0:
        if beta == 0.0:
            return PenaltyScalars(0.0, 0.0, 0.0)
        raise _bad_beta(beta)
    # 1/inf is exactly 0, so at beta = +inf both denominators are s.y itself
    sty = pair.sty
    d1 = sty + 1.0 / beta
    d2 = sty + 2.0 / beta
    if d1 == 0.0 or d2 == 0.0:
        raise SingularDenominatorError(f"degenerate denominator: s.y = {sty}, beta = {beta}")
    gamma = 1.0 / d1
    omega = 1.0 / d2
    if not (math.isfinite(gamma) and math.isfinite(omega)):
        raise NonFiniteError("penalty scalars overflowed")
    return PenaltyScalars(beta, gamma, omega)


def _checked_square(h, n, name="H"):
    h = np.ascontiguousarray(h, dtype=float)
    if h.shape != (n, n):
        raise BadDimensionError(f"{name} has shape {h.shape}, expected {(n, n)}")
    return h


def _checked_h_copy(h, n, name="H"):
    """A fresh C-contiguous float copy of H, which must be n x n, finite and exactly symmetric."""
    h = _checked_square(h, n, name)
    if not np.isfinite(h).all():
        raise NonFiniteError(f"{name} must be finite")
    if not np.array_equal(h, h.T):
        raise DegenerateInputError(f"{name} must be exactly symmetric")
    return h.copy()


def _update_scratch(n):
    """Scratch for the in-place update at size n: (a, b, finite).

    a and b are n x n float arrays; finite is the first n^2 bytes of b seen
    as an n x n bool array, which the finiteness check writes after the
    kernel has clobbered b, so the check allocates nothing of size n x n.
    """
    a, b = np.empty((n, n)), np.empty((n, n))
    return a, b, b.reshape(-1).view(np.bool_)[:n * n].reshape(n, n)


def bfgs_update(h, pair):
    """Classic BFGS update of the inverse approximation, returned as a new array.

    Requires s.y > 0 (CurvatureViolationError otherwise), then is
    spbfgs_update at beta = +inf, whose scalars gamma = omega = 1/s.y are
    BFGS's rho: the same kernel, the same bytes, and the same errors for H.
    """
    if not bfgs_curvature_ok(pair):
        raise CurvatureViolationError(f"BFGS update needs s.y > 0, got {pair.sty}")
    return spbfgs_update(h, pair, compute_penalty_scalars(pair, math.inf))


def spbfgs_update(h, pair, scalars, scratch=None):
    """Penalized rank-two update of the inverse approximation.

    Without scratch, H is left untouched and the update is returned as a
    new array; H must be n x n (BadDimensionError), finite (NonFiniteError)
    and exactly symmetric (DegenerateInputError).  With scratch = (a, b,
    finite) as _update_scratch(n) makes it, allocated once and reused, H
    must be a C-contiguous n x n float array distinct from a and b, finite
    and symmetric as a precondition the caller owns (nothing here checks
    it); H is overwritten with the update and returned, and the scratch is
    clobbered.  That is the driver's path: no n x n array is allocated.

    For symmetric H the result is exactly symmetric.  It is positive
    definite (given H positive definite) iff s.y > -1/beta; callers that
    need definiteness must check spbfgs_curvature_ok first, this routine
    does not.  A non-finite result raises NonFiniteError; in place, H then
    holds it.
    """
    if scratch is None:
        h = _checked_h_copy(h, pair.n)
        scratch = _update_scratch(pair.n)
    if scalars.gamma == 0.0 and scalars.omega == 0.0:
        return h
    a, b, finite = scratch
    _penalized_rank_two_update(h, pair.s, pair.y, scalars.gamma, scalars.omega, a, b)
    if not np.isfinite(h, out=finite).all():
        raise NonFiniteError("penalized update produced non-finite entries")
    return h


def spbfgs_inverse_update(b, pair, scalars):
    """Penalized update applied directly to B = H^{-1} (diagnostics only).

    With dhat = (omega - gamma) y.B^{-1}y - gamma/omega the update is

        B+ = B - omega * [ dhat Bs(Bs)^T + (1 - omega s.y)(Bs y^T + y (Bs)^T)
                           + omega (s.Bs) y y^T ] / den,
        den = dhat (omega s.Bs) - (1 - omega s.y)^2.

    B must be positive definite.  beta = 0 returns B unchanged.  A
    degenerate den raises SingularDenominatorError (surfaced, never
    regularized).  The inverse of spbfgs_update's result, computed by an
    unrelated formula, which is what makes it useful as a cross-check.
    """
    b = _checked_square(b, pair.n, name="B")
    beta = scalars.beta
    if beta == 0.0:
        return b.copy()
    s, y, sty = pair.s, pair.y, pair.sty
    bs = b @ s
    sbs = float(s @ bs)
    try:
        binv_y = np.linalg.solve(b, y)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInputError("B must be invertible (and positive definite)") from exc
    ybinvy = float(y @ binv_y)
    omega, gamma = scalars.omega, scalars.gamma
    # gamma/omega computed from its definition to stay exact at beta = +inf
    ratio = (sty + 2.0 / beta) / (sty + 1.0 / beta)
    dhat = (omega - gamma) * ybinvy - ratio
    residual = 1.0 - omega * sty  # equals 2 omega / beta
    den = dhat * (omega * sbs) - residual * residual
    scale = abs(dhat * omega * sbs) + residual * residual
    if not math.isfinite(den) or abs(den) <= 1e-16 * scale:
        raise SingularDenominatorError(f"inverse-form denominator degenerated: {den}")
    num = (
        dhat * np.outer(bs, bs)
        + residual * (np.outer(bs, y) + np.outer(y, bs))
        + (omega * sbs) * np.outer(y, y)
    )
    out = b - (omega / den) * num
    if not np.isfinite(out).all():
        raise NonFiniteError("inverse-form update produced non-finite entries")
    return 0.5 * (out + out.T)
