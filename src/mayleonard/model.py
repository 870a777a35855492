"""Vector fields and parameter handling for the asymmetric May-Leonard system.

The model couples three populations through

    dx_n/dt = x_n * (eta - sum_m a_nm x_m),    a_nn = 1,

with six free off-diagonal couplings and one growth rate eta.  Substituting
x_n(t) = exp(eta t) y_n(tau) with the stretched time tau = (exp(eta t) - 1)/eta
removes the linear growth term and leaves the degree-2 homogeneous companion

    dy_n/dtau = -y_n * sum_m a_nm y_m.

States are plain numpy arrays of shape (3,).  Whether a computation runs over
the reals or the complex field follows from the dtypes of the inputs; nothing
here branches on an explicit mode flag.  Operations that would hand back a
non-finite value raise OverflowSignal instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverflowSignal, SingularMatrixError, ZeroEtaError

Scalar = float | complex

# |det a| below this times ||a||_2^3 counts as singular.
SINGULAR_RTOL = 1e-12

# |eta| below this cannot be used as a time scale.
ZERO_ETA_TOL = 1e-300


def _check_finite(value: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(value).all():
        raise OverflowSignal(f"{what} contains a non-finite value")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Growth rate and coupling matrix; the diagonal is pinned to exactly 1.

    Build either directly from a full 3x3 array or through from_couplings
    with the six off-diagonal entries.  The stored array is read-only; its
    columns are also kept as contiguous arrays for rhs.
    """

    eta: Scalar
    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, copy=True)
        if a.shape != (3, 3):
            raise ValueError(f"coupling matrix must have shape (3, 3), got {a.shape}")
        if not np.issubdtype(a.dtype, np.number):
            raise TypeError("coupling matrix must be numeric")
        a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
        _check_finite(a, "coupling matrix")
        if np.any(np.diagonal(a) != 1):
            raise ValueError("coupling matrix diagonal must equal 1 exactly")
        eta = self.eta
        if isinstance(eta, (bool, str)):
            raise TypeError("eta must be a real or complex number")
        eta = complex(eta) if isinstance(eta, complex) else float(eta)
        if not np.isfinite(eta):
            raise OverflowSignal("eta must be finite")
        a.setflags(write=False)
        columns = tuple(np.ascontiguousarray(a[:, m]) for m in range(3))
        for column in columns:
            column.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "_columns", columns)

    @classmethod
    def from_couplings(cls, eta: Scalar, a12: Scalar, a13: Scalar, a21: Scalar,
                       a23: Scalar, a31: Scalar, a32: Scalar) -> "ModelParams":
        off = (a12, a13, a21, a23, a31, a32)
        dtype = complex if any(isinstance(v, complex) for v in off) else float
        a = np.eye(3, dtype=dtype)
        a[0, 1], a[0, 2] = a12, a13
        a[1, 0], a[1, 2] = a21, a23
        a[2, 0], a[2, 1] = a31, a32
        return cls(eta, a)

    @property
    def couplings(self) -> tuple:
        """Off-diagonal entries in the order (a12, a13, a21, a23, a31, a32)."""
        a = self.a
        return (a[0, 1], a[0, 2], a[1, 0], a[1, 2], a[2, 0], a[2, 1])


@dataclass(frozen=True)
class SymmetricParams:
    """Cyclic coupling pattern: a12 = a23 = a31 = alpha, a13 = a21 = a32 = beta."""

    alpha: Scalar
    beta: Scalar

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float, complex)):
                raise TypeError(f"{name} must be a number")
            if not np.isfinite(complex(v)):
                raise OverflowSignal(f"{name} must be finite")


def reduce_symmetric(sym: SymmetricParams) -> ModelParams:
    """Expand the cyclic (alpha, beta) pattern to full parameters with eta = 1."""
    al, be = sym.alpha, sym.beta
    return ModelParams.from_couplings(1.0, al, be, be, al, al, be)


def _bracket(params: ModelParams, x: np.ndarray) -> np.ndarray:
    # Row-wise eta - a_n1 x1 - a_n2 x2 - a_n3 x3, subtracted left to right.
    # The explicit term order keeps the result bit-stable across numpy builds.
    a1, a2, a3 = params._columns
    return params.eta - a1 * x[0] - a2 * x[1] - a3 * x[2]


def rhs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Time derivative x_n * (eta - sum_m a_nm x_m) of the competitive system."""
    x = np.asarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = x * _bracket(params, x)
    return _check_finite(out, "rhs")


def rhs_transformed(params: ModelParams, y: np.ndarray) -> np.ndarray:
    """Derivative -y_n * sum_m a_nm y_m of the homogenized companion system.

    Degree-2 homogeneous: scaling y by lambda scales the output by lambda**2.
    eta does not appear; it is absorbed by the time stretch.
    """
    y = np.asarray(y)
    a = params.a
    with np.errstate(over="ignore", invalid="ignore"):
        total = a[:, 0] * y[0] + a[:, 1] * y[1] + a[:, 2] * y[2]
        out = -y * total
    return _check_finite(out, "rhs_transformed")


def jacobian(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Derivative matrix J_nm = delta_nm (eta - (a x)_n) - x_n a_nm."""
    x = np.asarray(x)
    a = params.a
    with np.errstate(over="ignore", invalid="ignore"):
        jac = -x[:, None] * a
        idx = np.arange(3)
        jac[idx, idx] += params.eta - a @ x
    return _check_finite(jac, "jacobian")


def interior_equilibrium(params: ModelParams) -> np.ndarray:
    """Fixed point where every bracket vanishes: the solution of a x = eta 1.

    Raises SingularMatrixError when |det a| is negligible against ||a||_2^3,
    in which case no isolated interior equilibrium exists.
    """
    a = params.a
    det = np.linalg.det(a)
    scale = np.linalg.norm(a, 2) ** 3
    if abs(det) < SINGULAR_RTOL * scale:
        raise SingularMatrixError(
            f"coupling matrix is singular to working precision (|det| = {abs(det):.3e})")
    ones = np.ones(3, dtype=a.dtype)
    x_star = np.linalg.solve(a, params.eta * ones)
    return _check_finite(x_star, "interior equilibrium")


def rescale_to_unit_eta(params: ModelParams, x0: np.ndarray):
    """Reduce to unit growth rate via x(t) = eta * xt(eta t).

    Returns (params with eta = 1, rescaled initial state x0/eta, time scale
    eta).  A trajectory xt of the returned system maps back through
    x(t) = eta * xt(eta * t).  Raises ZeroEtaError when eta is (numerically)
    zero and cannot serve as a time scale.
    """
    eta = params.eta
    if abs(eta) < ZERO_ETA_TOL:
        raise ZeroEtaError("eta is zero to working precision; nothing to rescale by")
    x0 = np.asarray(x0)
    unit = 1.0 if not isinstance(eta, complex) else complex(1.0)
    scaled = ModelParams(unit, params.a)
    return scaled, x0 / eta, eta
