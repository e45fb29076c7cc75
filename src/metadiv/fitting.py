"""Growth-curve models and their least-squares fitting.

Model values at event count n:

    PowerLaw  C * n**alpha            (unbounded)
    M1        D * (1 - exp(-alpha*n)) (saturating exponential)
    M2        D * n / (n + c)
    M3        D * (n + b) / (n + c)
    M4        D * (n / (n + c))**alpha

For every saturating model the parameter D is the asymptote, the value the
statistic converges to as n grows without bound.  M3 with b = 0 reduces to
M2, as does M4 with alpha = 1.

Each model is one row of ``FORMS``: its parameter names, the solver's
projection floors, the solver's cold start, and one function ``form(p, n)``.
It takes a float vector p of the model's arity and a float array n, checks
neither, and returns the model value at n and a ``jacobian(out, positive)``
closure over the intermediates of that value (``n + c``, ``w**alpha`` and
the like).  The closure writes the (len(n), arity) Jacobian at the same p
into ``out``, masking the logarithms to ``positive`` (see ``_log``), and
returns it.  ``eval_model``, ``model_gradient`` and the solver all go
through ``form``, so each formula is written once.

The power law is fitted in closed form by ordinary least squares on
(ln n, ln value).  Saturating models are fitted by damped Gauss-Newton
iteration (Levenberg-Marquardt): at each step the normal equations

    (J'J + lam * diag(J'J)) step = J' r

are solved with the analytic Jacobian, the damping factor adapting until
the step reduces the squared residual.  Parameters are kept in their valid
region by projection onto the floors.  Each model is evaluated once per
trial step, and the Jacobian at an accepted step is built by that trial's
closure into one buffer per fit, with the same floating-point operations as
``eval_model`` and ``model_gradient``.  A fit reports how many Jacobians it
evaluated and why it stopped: a relative parameter change below
``REL_PARAM_TOL`` (``param-tol``), a relative cost change below
``REL_COST_TOL`` (``cost-tol``), no damping up to 1e12 that reduces the
cost (``damping-exhausted``), or ``MAX_ITER`` iterations (``max-iter``).
Only the first two count as converged, and only with finite parameters and
cost: a curve whose arithmetic overflows or underflows ends unconverged,
without numpy warnings.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .accumulation import AccumulationCurve

__all__ = [
    "ModelKind",
    "FORMS",
    "SATURATING",
    "eval_model",
    "model_gradient",
    "InsufficientDataError",
    "FitResult",
    "RankedModel",
    "fit_power_law",
    "fit_model",
    "asymptote",
    "compare_models",
]

MAX_ITER = 500
REL_PARAM_TOL = 1e-8
REL_COST_TOL = 1e-10


class ModelKind(enum.Enum):
    POWER_LAW = "power"
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"
    M4 = "m4"


# The saturating models, in the order compare_models fits them and breaks ties.
SATURATING = (ModelKind.M1, ModelKind.M2, ModelKind.M3, ModelKind.M4)


def _log(x: np.ndarray, positive: np.ndarray | None) -> np.ndarray:
    """ln x where ``positive`` holds, 0 elsewhere; ``None`` means everywhere.

    The Jacobian columns take ``value * ln x`` for x = n or x = w, which
    tends to 0 as n -> 0 for alpha > 0, so 0 is the derivative at n = 0.
    """
    return np.log(x if positive is None else np.where(positive, x, 1.0))


def _power(p, n):
    C, alpha = p
    na = n**alpha

    def jacobian(out, positive):
        out[:, 0] = na
        np.multiply(C * na, _log(n, positive), out=out[:, 1])
        return out

    return C * na, jacobian


def _m1(p, n):
    D, alpha = p
    decay = np.exp(-alpha * n)
    rise = 1.0 - decay

    def jacobian(out, positive):
        out[:, 0] = rise
        np.multiply(D * n, decay, out=out[:, 1])
        return out

    return D * rise, jacobian


def _m2(p, n):
    D, c = p
    denom = n + c

    def jacobian(out, positive):
        np.divide(n, denom, out=out[:, 0])
        np.divide(-D * n, denom**2, out=out[:, 1])
        return out

    return D * n / denom, jacobian


def _m3(p, n):
    D, b, c = p
    shifted = n + b
    denom = n + c

    def jacobian(out, positive):
        np.divide(shifted, denom, out=out[:, 0])
        np.divide(D, denom, out=out[:, 1])
        np.divide(-D * shifted, denom**2, out=out[:, 2])
        return out

    return D * shifted / denom, jacobian


def _m4(p, n):
    D, c, alpha = p
    denom = n + c
    w = n / denom
    wa = w**alpha

    def jacobian(out, positive):
        out[:, 0] = wa
        np.divide(-D * alpha * wa, denom, out=out[:, 1])
        np.multiply(D * wa, _log(w, positive), out=out[:, 2])
        return out

    return D * wa, jacobian


class Form(NamedTuple):
    """One model: parameter names, its value/Jacobian function and, for a
    saturating model, the solver's projection floors and a cold start
    ``start(D0, c0)`` from an asymptote and a half-rise guess."""

    names: tuple[str, ...]
    form: Callable
    floors: tuple[float, ...] = ()
    start: Callable | None = None


# Floors keep D, c and alpha strictly positive; b may reach zero (M3
# contains M2 on that boundary).
FORMS = {
    ModelKind.POWER_LAW: Form(("C", "alpha"), _power),
    ModelKind.M1: Form(("D", "alpha"), _m1, (1e-12, 1e-12), lambda d0, c0: (d0, 1.0 / c0)),
    ModelKind.M2: Form(("D", "c"), _m2, (1e-12, 1e-12), lambda d0, c0: (d0, c0)),
    ModelKind.M3: Form(("D", "b", "c"), _m3, (1e-12, 0.0, 1e-12),
                       lambda d0, c0: (d0, 0.0, c0)),
    ModelKind.M4: Form(("D", "c", "alpha"), _m4, (1e-12, 1e-12, 1e-12),
                       lambda d0, c0: (d0, c0, 1.0)),
}


def _check_arity(kind: ModelKind, params: Sequence[float]) -> np.ndarray:
    names = FORMS[kind].names
    vec = np.asarray(params, dtype=float)
    if vec.shape != (len(names),):
        raise ValueError(
            f"{kind.name} takes {len(names)} parameters {names}, got {vec.shape}"
        )
    return vec


def eval_model(kind: ModelKind, params: Sequence[float], n):
    """Evaluate the model at event count(s) n >= 0.

    Accepts a scalar or array n and returns a matching float or array.
    """
    p = _check_arity(kind, params)
    out, _ = FORMS[kind].form(p, np.asarray(n, dtype=float))
    return float(out) if np.isscalar(n) else out


def model_gradient(kind: ModelKind, params: Sequence[float], n) -> np.ndarray:
    """Partial derivatives of the model value with respect to each parameter.

    Returns an array of shape (len(n), arity) with columns in the order of
    ``FORMS[kind].names``.  These are the exact gradients the fitting solver
    uses.
    """
    p = _check_arity(kind, params)
    n_arr = np.atleast_1d(np.asarray(n, dtype=float))
    _, jacobian = FORMS[kind].form(p, n_arr)
    return jacobian(np.empty((len(n_arr), len(p))), n_arr > 0)


class InsufficientDataError(ValueError):
    """Raised when a curve has too few points for the requested fit."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of a model fit.

    ``residual`` is the root-mean-square error over the fitted points (in
    log space for the power law).  ``converged`` is a reported state, not a
    guarantee: observed curves may still be growing.  ``iterations`` (the
    number of Jacobian evaluations) and ``stop_reason`` (``param-tol``,
    ``cost-tol``, ``damping-exhausted`` or ``max-iter``) describe the
    iterative solver; the closed-form power law has 0 and None.  The CLI
    prints neither.
    """

    kind: ModelKind
    params: dict[str, float]
    residual: float
    n_points: int
    converged: bool
    iterations: int = 0
    stop_reason: str | None = None

    def param_vector(self) -> np.ndarray:
        return np.array([self.params[name] for name in FORMS[self.kind].names])

    def predict(self, n):
        return eval_model(self.kind, self.param_vector(), n)


class RankedModel(NamedTuple):
    kind: ModelKind
    holdout_rmse: float
    fit: FitResult


def fit_power_law(curve: AccumulationCurve) -> FitResult:
    """Fit value = C * n**alpha by OLS on the log-log points.

    Exact on data generated from the model itself; the reported residual is
    the RMSE in log space.
    """
    if len(curve) < 3:
        raise InsufficientDataError("power-law fit needs at least 3 points")
    n = curve.ns
    v = curve.values
    if np.any(n <= 0) or np.any(v <= 0):
        raise ValueError("power-law fit requires n > 0 and value > 0")
    log_n = np.log(n)
    log_v = np.log(v)
    slope, intercept = np.polyfit(log_n, log_v, 1)
    resid = log_v - (intercept + slope * log_n)
    return FitResult(
        kind=ModelKind.POWER_LAW,
        params={"C": float(np.exp(intercept)), "alpha": float(slope)},
        residual=float(np.sqrt(np.mean(resid**2))),
        n_points=len(curve),
        converged=True,
    )


def _initial_params(kind: ModelKind, n: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cold-start heuristic: D0 a bit above the last value, c0 at half-rise."""
    d0 = 1.2 * v[-1]
    half = d0 / 2.0
    # np.interp wants increasing sample points; a growth curve is close
    # enough for a starting guess, and flat curves fall back to the left edge.
    c0 = float(np.interp(half, v, n)) if v[-1] >= half else float(n[-1])
    return np.array(FORMS[kind].start(d0, max(c0, 1e-6)))


@np.errstate(all="ignore")  # an overflowing fit is reported through ``converged``
def fit_model(curve: AccumulationCurve, kind: ModelKind) -> FitResult:
    """Fit a saturating model by damped iterative least squares.

    Non-convergence within the iteration budget is reported through the
    ``converged`` flag rather than raised.
    """
    if kind not in SATURATING:
        raise ValueError(f"{kind.name} is not a saturating model")
    names, form, floors, _ = FORMS[kind]
    if len(curve) < len(names) + 1:
        raise InsufficientDataError(
            f"{kind.name} fit needs at least {len(names) + 1} points, got {len(curve)}"
        )
    n = curve.ns
    v = curve.values
    floor = np.array(floors)
    # C order, the layout of model_gradient's result, so that jac.T @ jac
    # takes the same BLAS route and rounds the same.
    jac = np.empty((len(n), len(names)))

    p = np.maximum(_initial_params(kind, n, v), floor)
    value, jacobian = form(p, n)
    r = np.subtract(v, value, out=value)
    cost = float(r @ r)
    lam = 1e-3
    stop_reason = "max-iter"

    for iterations in range(1, MAX_ITER + 1):
        # ``jacobian`` is the closure of the value at p; every n of a curve
        # is >= 1, so it takes its logarithms unmasked.
        jacobian(jac, None)
        grad = jac.T @ r
        hess = jac.T @ jac
        scale = np.diag(hess).copy()
        scale[scale <= 0] = 1e-12

        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + np.diag(lam * scale), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.maximum(p + step, floor)
            # Each trial rebinds ``jacobian``, so one trial's intermediates are
            # alive at a time; keeping the accepted step's through the trials
            # measured slower.
            value, jacobian = form(p_new, n)
            r_new = np.subtract(v, value, out=value)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                break
            lam *= 10.0
        else:
            stop_reason = "damping-exhausted"
            break

        rel_param = float(np.max(np.abs(p_new - p) / np.maximum(np.abs(p), 1e-12)))
        rel_cost = abs(cost - cost_new) / max(cost, 1e-300)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam * 0.3, 1e-12)
        if rel_param < REL_PARAM_TOL:
            stop_reason = "param-tol"
            break
        if rel_cost < REL_COST_TOL:
            stop_reason = "cost-tol"
            break

    return FitResult(
        kind=kind,
        params={name: float(val) for name, val in zip(names, p)},
        residual=float(np.sqrt(cost / len(n))),
        n_points=len(curve),
        converged=stop_reason in ("param-tol", "cost-tol") and bool(np.isfinite([*p, cost]).all()),
        iterations=iterations,
        stop_reason=stop_reason,
    )


def asymptote(fit: FitResult) -> float:
    """The fitted asymptotic value D of a saturating model."""
    if fit.kind not in SATURATING:
        raise ValueError("a power law grows without bound and has no asymptote")
    return fit.params["D"]


@np.errstate(all="ignore")  # as in fit_model; the CLI refuses a non-finite RMSE
def compare_models(curve: AccumulationCurve, train_limit: int) -> list[RankedModel]:
    """Fit each saturating model on n <= train_limit, rank by holdout RMSE.

    The holdout set is every point with n > train_limit; the returned list
    is ascending by holdout error with non-converged fits ranked last.
    """
    ns = curve.ns
    holdout = ns > train_limit
    if not holdout.any():
        raise InsufficientDataError("curve has no points beyond the training limit")
    hold_n = ns[holdout]
    hold_v = curve.values[holdout]
    train = curve.truncated(train_limit)

    ranked = []
    for kind in SATURATING:
        fit = fit_model(train, kind)
        pred = fit.predict(hold_n)
        rmse = float(np.sqrt(np.mean((hold_v - pred) ** 2)))
        ranked.append(RankedModel(kind=kind, holdout_rmse=rmse, fit=fit))
    ranked.sort(key=lambda rm: (not rm.fit.converged, rm.holdout_rmse))
    return ranked
