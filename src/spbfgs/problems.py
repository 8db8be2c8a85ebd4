"""Analytic unconstrained test problems with hand-coded gradients.

Formulas follow the classical test-set literature; minima (phi_star) are
analytic.  Two entries are documented variants where the historical source
admits several forms: sineval and snail (see their docstrings).

The three sized problems (srosenbr, genrose, extrosnb) have a stacked f:
it takes points stacked as (..., n) and returns their values as (...),
each bitwise the value f gives the point alone, so that a line search can
evaluate several trial points in one call (Problem.stacked_f).

Seven fixed-size problems (rosenbrock, beale, cube, powellsg, helix,
sineval, snail) take one point and evaluate their formula on Python floats,
x.tolist(), in about half the time the same formula takes on numpy float64
scalars.  A finite result has the same bits either way: + - * / round
alike, and ** is libm pow on both.  Where Python raises ArithmeticError
instead (** overflowing, where numpy gives inf; a division by zero, where
numpy gives inf or nan) or the result is not finite, the formula is
evaluated again on x's numpy scalars, so such points keep numpy's values,
nan signs included, and its warnings outside np.errstate.  A domain error
(math.sin(inf), say) raises the same ValueError on either path.
quadratic_ill and box3 evaluate on numpy arrays.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadDimensionError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Problem:
    """A smooth objective with start point and known minimum value.

    x0 must be a 1-d array of length n (BadDimensionError otherwise).
    """

    name: str
    n: int
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    phi_star: float
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    strong_convexity: Optional[tuple] = None  # (m, M) when globally strongly convex
    notes: str = ""
    stacked_f: bool = False  # f maps (..., n) to (...), row by row as for one point

    def __post_init__(self):
        if np.shape(self.x0) != (self.n,):
            raise BadDimensionError(f"problem {self.name!r}: x0 must be a 1-d array of "
                                    f"length n = {self.n}, got shape {np.shape(self.x0)}")


def _value_on_python_floats(formula):
    """f(x) = formula(x.tolist()) where that is finite, else formula(x) on numpy scalars.

    The formula indexes x, so it runs unchanged on the list of Python floats
    and on the float64 vector, whose entries are numpy scalars.  Where Python
    raises ArithmeticError or gives a non-finite value, the value is numpy's:
    a nan's sign can differ between the two (CPython's nan ** 3 keeps the
    sign, libm's flips it), so only finite results come from the floats.
    """

    def f(x):
        try:
            value = formula(x.tolist())
            if math.isfinite(value):
                return value
        except ArithmeticError:
            pass
        return formula(x)

    return f


def _gradient_on_python_floats(formula):
    """grad(x) as an array of formula's components, evaluated as _value_on_python_floats does."""

    def grad(x):
        try:
            g = formula(x.tolist())
            # finite iff every component is, or it overflowed (numpy's values then)
            if math.isfinite(sum(g)):
                return np.array(g)
        except ArithmeticError:
            pass
        return np.array(formula(x))

    return grad


def _scalar_square(d):
    """d ** 2 entry by entry as a numpy scalar squares: through libm pow.

    An array's ** 2 is d * d, which rounds differently from pow(d, 2) at
    about one point in a thousand, so a stacked f squares its scalar terms
    one at a time to give each row the value of the one-point f.
    """
    if d.ndim == 0:
        return d ** 2
    return np.array([v ** 2 for v in d.flat]).reshape(d.shape)


def quadratic_ill():
    """0.5 x^T T x with T = diag(1e-2, 1, 1e2, 1e4).

    Condition number 1e6; minimum 0 at the origin; x0 = 1e5 * ones excites
    every eigendirection and gives a starting gradient norm near 1e9.
    """
    t = np.diag(np.array([1e-2, 1.0, 1e2, 1e4]))

    def f(x):
        return 0.5 * float(x @ (t @ x))

    def grad(x):
        return t @ x

    def hess(x):
        return t.copy()

    return Problem(
        name="quadratic_ill",
        n=4,
        f=f,
        grad=grad,
        x0=np.full(4, 1e5),
        phi_star=0.0,
        hess=hess,
        strong_convexity=(1e-2, 1e4),
        notes="strongly convex quadratic, cond 1e6",
    )


def rosenbrock():
    """100 (x2 - x1^2)^2 + (1 - x1)^2; minimum 0 at (1, 1), x0 = (-1.2, 1)."""

    @_value_on_python_floats
    def f(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    @_gradient_on_python_floats
    def grad(x):
        t = x[1] - x[0] ** 2
        return [-400.0 * x[0] * t - 2.0 * (1.0 - x[0]), 200.0 * t]

    def hess(x):
        return np.array(
            [
                [2.0 - 400.0 * x[1] + 1200.0 * x[0] ** 2, -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ]
        )

    return Problem("rosenbrock", 2, f, grad, np.array([-1.2, 1.0]), 0.0, hess=hess)


def srosenbr(n=10):
    """Separable extended Rosenbrock in n (even) variables; minimum 0 at ones."""
    if n < 2 or n % 2 != 0:
        raise BadDimensionError(f"srosenbr needs even n >= 2, got {n}")

    def f(x):
        xo, xe = x[..., 0::2], x[..., 1::2]
        t = xe - xo ** 2
        return np.sum(100.0 * t ** 2 + (1.0 - xo) ** 2, axis=-1)

    def grad(x):
        g = np.zeros_like(x)
        xo, xe = x[0::2], x[1::2]
        t = xe - xo ** 2
        g[0::2] = -400.0 * xo * t - 2.0 * (1.0 - xo)
        g[1::2] = 200.0 * t
        return g

    x0 = np.tile([-1.2, 1.0], n // 2)
    return Problem("srosenbr", n, f, grad, x0, 0.0, stacked_f=True)


def beale():
    """Beale's function; minimum 0 at (3, 0.5), x0 = (1, 1)."""
    consts = (1.5, 2.25, 2.625)

    @_value_on_python_floats
    def f(x):
        t = [(c - x[0] * (1.0 - x[1] ** (k + 1))) ** 2 for k, c in enumerate(consts)]
        # added left to right: from Python 3.12 sum() of Python floats is compensated
        return float(t[0] + t[1] + t[2])

    @_gradient_on_python_floats
    def grad(x):
        g0 = g1 = 0.0
        for k, c in enumerate(consts):
            yk = x[1] ** (k + 1)
            r = c - x[0] * (1.0 - yk)
            g0 += 2.0 * r * (yk - 1.0)
            g1 += 2.0 * r * x[0] * (k + 1) * x[1] ** k
        return [g0, g1]

    return Problem("beale", 2, f, grad, np.array([1.0, 1.0]), 0.0)


def cube():
    """(x1 - 1)^2 + 100 (x2 - x1^3)^2; minimum 0 at (1, 1), x0 = (-1.2, 1)."""

    @_value_on_python_floats
    def f(x):
        return float((x[0] - 1.0) ** 2 + 100.0 * (x[1] - x[0] ** 3) ** 2)

    @_gradient_on_python_floats
    def grad(x):
        t = x[1] - x[0] ** 3
        return [2.0 * (x[0] - 1.0) - 600.0 * x[0] ** 2 * t, 200.0 * t]

    return Problem("cube", 2, f, grad, np.array([-1.2, 1.0]), 0.0)


def powellsg():
    """Powell's singular function in 4 variables; minimum 0 at the origin."""

    @_value_on_python_floats
    def f(x):
        return float(
            (x[0] + 10.0 * x[1]) ** 2
            + 5.0 * (x[2] - x[3]) ** 2
            + (x[1] - 2.0 * x[2]) ** 4
            + 10.0 * (x[0] - x[3]) ** 4
        )

    @_gradient_on_python_floats
    def grad(x):
        a = x[0] + 10.0 * x[1]
        b = x[2] - x[3]
        c = (x[1] - 2.0 * x[2]) ** 3
        d = (x[0] - x[3]) ** 3
        return [
            2.0 * a + 40.0 * d,
            20.0 * a + 4.0 * c,
            10.0 * b - 8.0 * c,
            -10.0 * b - 40.0 * d,
        ]

    return Problem("powellsg", 4, f, grad, np.array([3.0, -1.0, 0.0, 1.0]), 0.0,
                   notes="Hessian singular at the solution")


def _helix_theta(x1, x2):
    if x1 > 0.0:
        return math.atan(x2 / x1) / _TWO_PI
    if x1 < 0.0:
        return math.atan(x2 / x1) / _TWO_PI + 0.5
    return 0.25 if x2 >= 0.0 else -0.25


def helix():
    """Helical valley in 3 variables; minimum 0 at (1, 0, 0), x0 = (-1, 0, 0)."""

    @_value_on_python_floats
    def f(x):
        theta = _helix_theta(x[0], x[1])
        r = math.hypot(x[0], x[1])
        return float(100.0 * ((x[2] - 10.0 * theta) ** 2 + (r - 1.0) ** 2) + x[2] ** 2)

    @_gradient_on_python_floats
    def grad(x):
        theta = _helix_theta(x[0], x[1])
        r2 = x[0] ** 2 + x[1] ** 2
        r = math.sqrt(r2)
        t = x[2] - 10.0 * theta
        u = r - 1.0
        dth1 = -x[1] / (_TWO_PI * r2)
        dth2 = x[0] / (_TWO_PI * r2)
        return [
            -2000.0 * t * dth1 + 200.0 * u * x[0] / r,
            -2000.0 * t * dth2 + 200.0 * u * x[1] / r,
            200.0 * t + 2.0 * x[2],
        ]

    return Problem("helix", 3, f, grad, np.array([-1.0, 0.0, 0.0]), 0.0,
                   notes="angle branch cut on the half-plane x1 < 0, x2 = 0")


def box3():
    """Box's three-dimensional exponential fit, 10 residuals; minimum 0 at (1, 10, 1)."""
    t = 0.1 * np.arange(1, 11)
    const = np.exp(-t) - np.exp(-10.0 * t)

    def f(x):
        r = np.exp(-t * x[0]) - np.exp(-t * x[1]) - x[2] * const
        return float(r @ r)

    def grad(x):
        e1 = np.exp(-t * x[0])
        e2 = np.exp(-t * x[1])
        r = e1 - e2 - x[2] * const
        return np.array(
            [
                -2.0 * float(r @ (t * e1)),
                2.0 * float(r @ (t * e2)),
                -2.0 * float(r @ const),
            ]
        )

    return Problem("box3", 3, f, grad, np.array([0.0, 10.0, 20.0]), 0.0)


def genrose(n=5):
    """Generalized Rosenbrock, 1 + sum of coupled terms; minimum 1 at ones.

    x0_i = i / (n + 1).  phi_star is 1 (not 0): the classical form adds a
    constant 1 to the chained residuals.
    """
    if n < 2:
        raise BadDimensionError(f"genrose needs n >= 2, got {n}")

    def f(x):
        t = x[..., 1:] - x[..., :-1] ** 2
        return 1.0 + np.sum(100.0 * t ** 2 + (x[..., 1:] - 1.0) ** 2, axis=-1)

    def grad(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[1:] += 200.0 * t + 2.0 * (x[1:] - 1.0)
        g[:-1] += -400.0 * x[:-1] * t
        return g

    x0 = np.arange(1, n + 1) / (n + 1.0)
    return Problem("genrose", n, f, grad, x0, 1.0, stacked_f=True)


def extrosnb(n=10):
    """Nonseparable extended Rosenbrock; minimum 0 at ones, x0 = -ones."""
    if n < 2:
        raise BadDimensionError(f"extrosnb needs n >= 2, got {n}")

    def f(x):
        t = x[..., 1:] - x[..., :-1] ** 2
        return _scalar_square(x[..., 0] - 1.0) + np.sum(100.0 * t ** 2, axis=-1)

    def grad(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 200.0 * t
        g[:-1] += -400.0 * x[:-1] * t
        return g

    return Problem("extrosnb", n, f, grad, np.full(n, -1.0), 0.0, stacked_f=True)


def sineval():
    """Trigonometric Rosenbrock variant: 1e4 (x2 - sin x1)^2 + 0.25 x1^2.

    Minimum 0 at the origin, x0 = (4.712389, -1).  Documented variant: the
    historical sources scale the two terms differently; this form keeps the
    steep sine valley and the same start and minimum.
    """

    @_value_on_python_floats
    def f(x):
        return float(1e4 * (x[1] - math.sin(x[0])) ** 2 + 0.25 * x[0] ** 2)

    @_gradient_on_python_floats
    def grad(x):
        t = x[1] - math.sin(x[0])
        return [-2e4 * t * math.cos(x[0]) + 0.5 * x[0], 2e4 * t]

    return Problem("sineval", 2, f, grad, np.array([4.712389, -1.0]), 0.0,
                   notes="variant scaling; see docstring")


def snail():
    """Spiral-valley problem in 2 variables; minimum 0 at the origin, x0 = (10, 10).

    In polar coordinates (r, theta):

        f = (r^2 / (1 + r^2)) * (b + a cos(theta - r)),

    with (a, b) = (0.5, 1.5) so the angular factor stays in [1, 2].
    Documented variant: reconstructed from the classical description of the
    coiled-valley problem (a spiral ridge of bounded height winding around
    a unique interior minimum).
    """
    a, b = 0.5, 1.5

    @_value_on_python_floats
    def f(x):
        r2 = x[0] ** 2 + x[1] ** 2
        if r2 == 0.0:
            return 0.0
        r = math.sqrt(r2)
        theta = math.atan2(x[1], x[0])
        return float(r2 / (1.0 + r2) * (b + a * math.cos(theta - r)))

    @_gradient_on_python_floats
    def grad(x):
        r2 = x[0] ** 2 + x[1] ** 2
        if r2 == 0.0:
            return [0.0, 0.0]
        r = math.sqrt(r2)
        theta = math.atan2(x[1], x[0])
        u = r2 / (1.0 + r2)
        v = b + a * math.cos(theta - r)
        sn = a * math.sin(theta - r)
        du = 2.0 / (1.0 + r2) ** 2
        return [
            x[0] * v * du - u * sn * (-x[1] / r2 - x[0] / r),
            x[1] * v * du - u * sn * (x[0] / r2 - x[1] / r),
        ]

    return Problem("snail", 2, f, grad, np.array([10.0, 10.0]), 0.0,
                   notes="reconstructed variant; see docstring")


_REGISTRY = {
    "quadratic_ill": quadratic_ill,
    "rosenbrock": rosenbrock,
    "srosenbr": srosenbr,
    "beale": beale,
    "cube": cube,
    "powellsg": powellsg,
    "helix": helix,
    "box3": box3,
    "genrose": genrose,
    "extrosnb": extrosnb,
    "sineval": sineval,
    "snail": snail,
}

_SIZED = {"srosenbr", "genrose", "extrosnb"}


def list_problems():
    """Names of all built-in problems, in registry order."""
    return list(_REGISTRY)


def get_problem(name, n=None):
    """Instantiate a built-in problem by name, optionally overriding its size."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown problem {name!r}; known: {', '.join(_REGISTRY)}")
    factory = _REGISTRY[name]
    if n is None:
        return factory()
    if name not in _SIZED:
        raise BadDimensionError(f"problem {name!r} has a fixed dimension")
    return factory(n)
