"""Least-squares fitting of growth curves and asymptote extrapolation.

The power law is fitted in closed form by ordinary least squares on
(ln n, ln value).  Saturating models are fitted by damped Gauss-Newton
iteration (Levenberg-Marquardt): at each step the normal equations

    (J'J + lam * diag(J'J)) step = J' r

are solved with the analytic Jacobian from :mod:`metadiv.models`, the
damping factor adapting until the step reduces the squared residual.
Parameters are kept in their valid region by projection onto the bounds.

Each model is evaluated once per trial step: its ``form`` in
:data:`metadiv.models.FORMS` returns the value and a Jacobian closure over
the value's intermediates, and the Jacobian at an accepted step is built by
that trial's closure into one buffer per fit, with the same floating-point
operations as ``eval_model`` and ``model_gradient``.  The cold start and
the projection floors come from the same ``FORMS`` row.  A fit reports how
many Jacobians it evaluated and why it stopped: a relative parameter change
below ``REL_PARAM_TOL`` (``param-tol``), a relative cost change below
``REL_COST_TOL`` (``cost-tol``), no damping up to 1e12 that reduces the
cost (``damping-exhausted``), or ``MAX_ITER`` iterations (``max-iter``).
Only the first two count as converged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .accumulation import AccumulationCurve
from .models import FORMS, SATURATING, ModelKind, eval_model
# perfbench/spans.py wraps metadiv.fitting.model_gradient, so the name stays importable here.
from .models import model_gradient  # noqa: F401

__all__ = [
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
    iterations = 0
    stop_reason = "max-iter"

    while iterations < MAX_ITER:
        iterations += 1
        # ``jacobian`` is the closure of the value at p; every n of a curve
        # is >= 1, so it takes its logarithms unmasked.
        jacobian(jac, None)
        grad = jac.T @ r
        hess = jac.T @ jac
        scale = np.diag(hess).copy()
        scale[scale <= 0] = 1e-12
        damping = np.diag(scale)

        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + lam * damping, grad)
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
                accepted = True
                break
            lam *= 10.0
        if not accepted:
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
        converged=stop_reason in ("param-tol", "cost-tol"),
        iterations=iterations,
        stop_reason=stop_reason,
    )


def asymptote(fit: FitResult) -> float:
    """The fitted asymptotic value D of a saturating model."""
    if fit.kind not in SATURATING:
        raise ValueError("a power law grows without bound and has no asymptote")
    return fit.params["D"]


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
