"""Ray solutions of the asymmetric May-Leonard system.

When the initial state makes the three row forms

    E_n = sum_m a_nm x_m(0)

take one common value z, the trajectory stays on the ray through x(0) and is
available in closed form:

    x_n(t) = x_n(0) / D(t),
    D(t)   = exp(-eta t) + (z/eta) (1 - exp(-eta t)),

with the eta -> 0 limit D(t) = 1 + z t.  In the homogenized coordinates the
same family reads y_n(tau) = y_n(0) / (1 + z tau).  D can reach zero at a
finite positive time (the solution blows up there), and for purely imaginary
eta the denominator is periodic, so every bounded solution closes after
T = 2 pi / |Im eta| regardless of the initial state.

Everything in this module treats the admissibility constraint E_1 = E_2 = E_3
as the gatekeeper: make_special hands back a SpecialSolution only when it
holds to tolerance, and an AdmissibilityReport (data, not an exception)
otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OverflowSignal, PoleError
from .model import ModelParams, Scalar, rhs

# Admissibility gate: max pairwise |E_i - E_j| <= tol * (1 + max |E_i|).
DEFAULT_ADMISSIBILITY_TOL = 1e-9

# |D| below this counts as sitting on a pole.
POLE_TOL = 1e-12

# |eta*t| (|eta*tau|) below this switches tau_of_t (t_of_tau) to its
# second-order limit.
SMALL_ETA = 1e-8

# Grid points must keep this much time-distance from a real blow-up.
BLOW_UP_MARGIN = 1e-3

# Default residual gate for verify_special.
DEFAULT_VERIFY_TOL = 1e-10


def linear_forms(params: ModelParams, x0: np.ndarray) -> tuple:
    """The three row forms E_n = sum_m a_nm x0_m as a tuple (E1, E2, E3)."""
    x0 = np.asarray(x0)
    a = params.a
    with np.errstate(over="ignore", invalid="ignore"):
        e = a[:, 0] * x0[0] + a[:, 1] * x0[1] + a[:, 2] * x0[2]
    if not np.all(np.isfinite(e)):
        raise OverflowSignal("linear forms overflowed")
    return tuple(e[k].item() for k in range(3))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the E_1 = E_2 = E_3 check.

    residuals holds (E1 - E2, E2 - E3); passed compares the largest pairwise
    difference (including E1 - E3) against tol * (1 + max |E_i|).  z is the
    mean of the three row forms when the check passes, None otherwise.
    """

    e_values: tuple
    residuals: tuple
    z: Scalar | None
    passed: bool
    tol: float


@dataclass(frozen=True)
class SpecialSolution:
    """A ray solution x_n(t) = x0_n / D(t); build it through make_special.

    The constructor performs no admissibility check itself, so anything not
    produced by make_special carries no guarantee that z matches x0.
    """

    x0: np.ndarray
    z: Scalar
    eta: Scalar

    def __post_init__(self) -> None:
        x0 = np.array(self.x0, copy=True)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)


def check_admissibility(params: ModelParams, x0: np.ndarray,
                        tol: float = DEFAULT_ADMISSIBILITY_TOL) -> AdmissibilityReport:
    """Measure how far x0 is from the common-value constraint E1 = E2 = E3."""
    e1, e2, e3 = linear_forms(params, x0)
    spread = max(abs(e1 - e2), abs(e2 - e3), abs(e1 - e3))
    scale = 1.0 + max(abs(e1), abs(e2), abs(e3))
    passed = bool(spread <= tol * scale)
    # Mean written so that three equal forms return that value exactly.
    z = e1 + ((e2 - e1) + (e3 - e1)) / 3 if passed else None
    return AdmissibilityReport(e_values=(e1, e2, e3), residuals=(e1 - e2, e2 - e3),
                               z=z, passed=passed, tol=tol)


def make_special(params: ModelParams, x0: np.ndarray,
                 tol: float = DEFAULT_ADMISSIBILITY_TOL):
    """Build the ray solution through x0, or report why there is none.

    Returns a SpecialSolution when the row forms agree to tolerance (z is
    their mean), and the failing AdmissibilityReport otherwise.  A rejected
    initial state is an answer, not a fault, hence no exception.
    """
    report = check_admissibility(params, x0, tol)
    if not report.passed:
        return report
    return SpecialSolution(x0=np.asarray(x0), z=report.z, eta=params.eta)


def _denominator(eta: Scalar, z: Scalar, t: float) -> Scalar:
    """D(t) = exp(-eta t) + (z/eta)(1 - exp(-eta t)); 1 + z t at eta = 0.

    The expm1 form keeps the eta term for every eta != 0, however small.
    """
    if eta == 0:
        return 1.0 + z * t
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-eta * t)
        growth = -np.expm1(-eta * t)  # 1 - exp(-eta t) without cancellation
        return (decay + z * growth / eta).item()


def _denominator_derivative(eta: Scalar, z: Scalar, t: float) -> Scalar:
    """dD/dt = (z - eta) exp(-eta t), on the same branches as _denominator."""
    if eta == 0:
        return z
    with np.errstate(over="ignore", invalid="ignore"):
        return ((z - eta) * np.exp(-eta * t)).item()


def eval_special(sol: SpecialSolution, t: float) -> np.ndarray:
    """State x(t) = x0 / D(t) of the ray solution.

    Raises PoleError when |D(t)| is below the pole tolerance and
    OverflowSignal when exp(-eta t) itself leaves the floating range.
    """
    if t == 0:
        return np.array(sol.x0, copy=True)
    d = _denominator(sol.eta, sol.z, t)
    if not np.isfinite(complex(d)):
        raise OverflowSignal(f"denominator overflowed at t = {t}")
    if abs(d) < POLE_TOL:
        raise PoleError(f"|D({t})| = {abs(d):.3e} is inside the pole tolerance")
    out = sol.x0 / d
    if not np.all(np.isfinite(out)):
        raise OverflowSignal(f"state overflowed at t = {t}")
    return out


def eval_y_special(y0: np.ndarray, z: Scalar, tau: float) -> np.ndarray:
    """Homogenized-coordinate ray solution y(tau) = y0 / (1 + z tau)."""
    y0 = np.asarray(y0)
    if tau == 0:
        return np.array(y0, copy=True)
    w = 1.0 + z * tau
    if abs(w) < POLE_TOL:
        raise PoleError(f"|1 + z tau| = {abs(w):.3e} is inside the pole tolerance")
    out = y0 / w
    if not np.all(np.isfinite(out)):
        raise OverflowSignal(f"state overflowed at tau = {tau}")
    return out


def tau_of_t(eta: Scalar, t: float) -> Scalar:
    """Stretched time tau = (exp(eta t) - 1)/eta; tau(0) = 0 exactly.

    For |eta t| < 1e-8 the second-order limit t (1 + eta t / 2) is used,
    which also covers eta = 0, where tau degenerates to t itself.
    """
    if t == 0:
        return 0.0
    w = eta * t
    if abs(w) < SMALL_ETA:
        return t * (1.0 + w / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.expm1(w) / eta).item()
    if not np.isfinite(complex(out)):
        raise OverflowSignal(f"tau overflowed at t = {t}")
    return out


def t_of_tau(eta: Scalar, tau: Scalar) -> Scalar:
    """Inverse stretch t = log(1 + eta tau)/eta (principal branch).

    For purely imaginary eta the logarithm is multivalued; the principal
    branch recovers t only modulo the period.  Raises PoleError at the
    branch point 1 + eta tau = 0.
    """
    if tau == 0:
        return 0.0
    w = eta * tau
    if abs(1.0 + w) < POLE_TOL:
        raise PoleError("1 + eta tau is at the logarithm branch point")
    if abs(w) < SMALL_ETA:
        return tau * (1.0 - w / 2)
    if isinstance(w, complex):
        return cmath.log(1.0 + w) / eta
    if 1.0 + w <= 0:
        raise PoleError(f"1 + eta tau = {1.0 + w:.3e} is outside the real logarithm domain")
    out = np.log1p(w) / eta
    return out.item() if isinstance(out, np.generic) else out


def transform_x_to_y(eta: Scalar, t: float, x: np.ndarray):
    """Map a state into homogenized coordinates: (tau(t), exp(-eta t) x).

    At t = 0 this is the identity on states with tau = 0 exactly.
    """
    x = np.asarray(x)
    if t == 0:
        return 0.0, np.array(x, copy=True)
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.exp(-eta * t) * x
    if not np.all(np.isfinite(y)):
        raise OverflowSignal(f"transform overflowed at t = {t}")
    return tau_of_t(eta, t), y


def transform_y_to_x(eta: Scalar, t: float, y: np.ndarray) -> np.ndarray:
    """Undo the state part of the homogenizing map at time t: x = exp(eta t) y.

    Takes the original time rather than tau: recovering exp(eta t) from
    tau = (exp(eta t) - 1)/eta is ill-conditioned for eta t << 0 (the
    exponential drowns in the constant), while re-exponentiating t keeps a
    round trip through transform_x_to_y within a few ulp at any |eta t| the
    doubles can hold.  Use t_of_tau first when only tau is known.
    """
    y = np.asarray(y)
    if t == 0:
        return np.array(y, copy=True)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(eta * t) * y
    if not np.all(np.isfinite(x)):
        raise OverflowSignal(f"transform overflowed at t = {t}")
    return x


def blow_up_time(sol: SpecialSolution) -> float | None:
    """Smallest t > 0 with D(t) = 0, or None when D never vanishes forward.

    Solving D(t) = 0 gives exp(-eta t) = z/(z - eta), so a forward pole
    needs that ratio to be positive and the resulting t positive.  Only real
    growth rates are supported; complex-time poles are not searched.
    """
    eta, z = sol.eta, sol.z
    if isinstance(eta, complex) or isinstance(z, complex):
        if complex(eta).imag != 0 or complex(z).imag != 0:
            raise ValueError("blow_up_time handles real eta and z only")
        eta, z = complex(eta).real, complex(z).real
    if z == 0:
        return None  # D = exp(-eta t) never vanishes
    if eta == 0:
        # D = 1 + z t crosses zero forward only for z < 0.
        return -1.0 / z if z < 0 else None
    # exp(-eta t) = z/(z - eta) = 1/(1 + w) with w = -eta/z, so
    # t = log1p(w)/eta; log1p keeps full precision when |eta/z| is tiny.
    w = -eta / z
    if w <= -1.0:
        return None
    t_star = math.log1p(w) / eta
    return t_star if t_star > 0 else None


def period_of(eta: Scalar) -> float | None:
    """Common period 2 pi / |Im eta| for purely imaginary eta, else None.

    With eta = i omega the factor exp(-eta t) is periodic and so is every
    ray solution that stays bounded: the period does not depend on the
    initial state (isochronicity).
    """
    w = complex(eta)
    if w.real != 0.0 or w.imag == 0.0:
        return None
    return 2.0 * math.pi / abs(w.imag)


@dataclass(frozen=True)
class VerifyReport:
    """Residual certificate for a ray solution over a time grid.

    max_residual is the largest componentwise |dx/dt - rhs(x)| seen;
    max_relative scales each point by 1 + max_n |x_n(t)| first.  passed
    compares max_relative against tol.
    """

    max_residual: float
    max_relative: float
    worst_time: float
    passed: bool
    tol: float


def verify_special(params: ModelParams, sol: SpecialSolution, grid,
                   tol: float = DEFAULT_VERIFY_TOL) -> VerifyReport:
    """Check dx/dt = rhs(x) along the closed form on the given time grid.

    The derivative comes from the denominator directly: dx_n/dt =
    -x_n D'(t)/D(t), so the residual is purely an admissibility defect.
    Real-eta grids must keep BLOW_UP_MARGIN away from the blow-up time;
    a violating grid point raises PoleError.
    """
    is_complex = isinstance(sol.eta, complex) or isinstance(sol.z, complex)
    t_star = None
    if not is_complex:
        t_star = blow_up_time(sol)
    max_res = 0.0
    max_rel = -1.0
    worst_t = float(grid[0]) if len(grid) else 0.0
    for t in grid:
        t = float(t)
        if t_star is not None and abs(t - t_star) < BLOW_UP_MARGIN:
            raise PoleError(
                f"grid point t = {t} is within {BLOW_UP_MARGIN} of the blow-up at t* = {t_star}")
        x = eval_special(sol, t)
        d = _denominator(sol.eta, sol.z, t)
        xdot = x * (-_denominator_derivative(sol.eta, sol.z, t) / d)
        res = np.max(np.abs(xdot - rhs(params, x)))
        rel = res / (1.0 + np.max(np.abs(x)))
        if rel > max_rel:
            max_rel = float(rel)
            max_res = float(res)
            worst_t = t
    if max_rel < 0:
        max_rel = 0.0  # empty grid verifies vacuously
    return VerifyReport(max_residual=max_res, max_relative=max_rel,
                        worst_time=worst_t, passed=bool(max_rel <= tol), tol=tol)
