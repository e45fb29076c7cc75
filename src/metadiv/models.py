"""Growth-curve model family: unbounded power law and saturating forms M1-M4.

Model values at event count n:

    PowerLaw  C * n**alpha            (unbounded)
    M1        D * (1 - exp(-alpha*n)) (saturating exponential)
    M2        D * n / (n + c)
    M3        D * (n + b) / (n + c)
    M4        D * (n / (n + c))**alpha

For every saturating model the parameter D is the asymptote, the value the
statistic converges to as n grows without bound.  M3 with b = 0 reduces to
M2, as does M4 with alpha = 1.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

__all__ = ["ModelKind", "PARAM_NAMES", "SATURATING", "eval_model", "model_gradient"]


class ModelKind(enum.Enum):
    POWER_LAW = "power"
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"
    M4 = "m4"


PARAM_NAMES: dict[ModelKind, tuple[str, ...]] = {
    ModelKind.POWER_LAW: ("C", "alpha"),
    ModelKind.M1: ("D", "alpha"),
    ModelKind.M2: ("D", "c"),
    ModelKind.M3: ("D", "b", "c"),
    ModelKind.M4: ("D", "c", "alpha"),
}

# The saturating models, in the order compare_models fits them and breaks ties.
SATURATING = (ModelKind.M1, ModelKind.M2, ModelKind.M3, ModelKind.M4)

# Projection floors for the solver: D, c, alpha stay strictly positive,
# b may reach zero (M3 contains M2 on that boundary).
PARAM_FLOORS: dict[ModelKind, tuple[float, ...]] = {
    ModelKind.M1: (1e-12, 1e-12),
    ModelKind.M2: (1e-12, 1e-12),
    ModelKind.M3: (1e-12, 0.0, 1e-12),
    ModelKind.M4: (1e-12, 1e-12, 1e-12),
}


def _check_arity(kind: ModelKind, params: Sequence[float]) -> np.ndarray:
    names = PARAM_NAMES[kind]
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
    n_arr = np.asarray(n, dtype=float)
    if kind is ModelKind.POWER_LAW:
        C, alpha = p
        out = C * n_arr**alpha
    elif kind is ModelKind.M1:
        D, alpha = p
        out = D * (1.0 - np.exp(-alpha * n_arr))
    elif kind is ModelKind.M2:
        D, c = p
        out = D * n_arr / (n_arr + c)
    elif kind is ModelKind.M3:
        D, b, c = p
        out = D * (n_arr + b) / (n_arr + c)
    else:
        D, c, alpha = p
        out = D * (n_arr / (n_arr + c)) ** alpha
    return float(out) if np.isscalar(n) else out


def model_gradient(kind: ModelKind, params: Sequence[float], n) -> np.ndarray:
    """Partial derivatives of the model value with respect to each parameter.

    Returns an array of shape (len(n), arity) with columns in PARAM_NAMES
    order.  These are the exact gradients the fitting solver uses.
    """
    p = _check_arity(kind, params)
    n_arr = np.atleast_1d(np.asarray(n, dtype=float))
    if kind is ModelKind.POWER_LAW:
        C, alpha = p
        na = n_arr**alpha
        # d/dalpha of C*n**alpha is C*n**alpha*ln(n); at n=0 the value is
        # identically 0 for alpha > 0, so the derivative is taken as 0.
        logn = np.where(n_arr > 0, np.log(np.where(n_arr > 0, n_arr, 1.0)), 0.0)
        return np.column_stack([na, C * na * logn])
    if kind is ModelKind.M1:
        D, alpha = p
        decay = np.exp(-alpha * n_arr)
        return np.column_stack([1.0 - decay, D * n_arr * decay])
    if kind is ModelKind.M2:
        D, c = p
        denom = n_arr + c
        return np.column_stack([n_arr / denom, -D * n_arr / denom**2])
    if kind is ModelKind.M3:
        D, b, c = p
        denom = n_arr + c
        return np.column_stack(
            [(n_arr + b) / denom, D / denom, -D * (n_arr + b) / denom**2]
        )
    D, c, alpha = p
    w = n_arr / (n_arr + c)
    wa = w**alpha
    # w**alpha * ln(w) -> 0 as w -> 0 for alpha > 0.
    logw = np.where(n_arr > 0, np.log(np.where(n_arr > 0, w, 1.0)), 0.0)
    return np.column_stack([wa, -D * alpha * wa / (n_arr + c), D * wa * logw])
