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


def _log(x: np.ndarray, positive: np.ndarray | None) -> np.ndarray:
    """ln x where ``positive`` holds, 0 elsewhere; ``None`` means everywhere.

    The Jacobian columns take ``value * ln x`` for x = n or x = w, which
    tends to 0 as n -> 0 for alpha > 0, so 0 is the derivative at n = 0.
    """
    return np.log(x if positive is None else np.where(positive, x, 1.0))


# One value/Jacobian pair per model, behind eval_model, model_gradient and the
# solver in metadiv.fitting alike, so each formula is written once.
# ``value(p, n)`` returns the model value at n and the intermediates the
# Jacobian reads; ``jacobian(p, n, parts, out, positive)`` writes the
# (len(n), arity) Jacobian at the same p into ``out`` from those intermediates
# and returns it.  Neither checks its arguments: p is a float vector of the
# model's arity and n a float array.


def _power(p, n):
    C, alpha = p
    na = n**alpha
    return C * na, (na,)


def _power_jacobian(p, n, parts, out, positive):
    C, _ = p
    (na,) = parts
    out[:, 0] = na
    np.multiply(C * na, _log(n, positive), out=out[:, 1])
    return out


def _m1(p, n):
    D, alpha = p
    decay = np.exp(-alpha * n)
    rise = 1.0 - decay
    return D * rise, (decay, rise)


def _m1_jacobian(p, n, parts, out, positive):
    D, _ = p
    decay, rise = parts
    out[:, 0] = rise
    np.multiply(D * n, decay, out=out[:, 1])
    return out


def _m2(p, n):
    D, c = p
    denom = n + c
    return D * n / denom, (denom,)


def _m2_jacobian(p, n, parts, out, positive):
    D, _ = p
    (denom,) = parts
    np.divide(n, denom, out=out[:, 0])
    np.divide(-D * n, denom**2, out=out[:, 1])
    return out


def _m3(p, n):
    D, b, c = p
    shifted = n + b
    denom = n + c
    return D * shifted / denom, (shifted, denom)


def _m3_jacobian(p, n, parts, out, positive):
    D, _, _ = p
    shifted, denom = parts
    np.divide(shifted, denom, out=out[:, 0])
    np.divide(D, denom, out=out[:, 1])
    np.divide(-D * shifted, denom**2, out=out[:, 2])
    return out


def _m4(p, n):
    D, c, alpha = p
    denom = n + c
    w = n / denom
    wa = w**alpha
    return D * wa, (denom, w, wa)


def _m4_jacobian(p, n, parts, out, positive):
    D, _, alpha = p
    denom, w, wa = parts
    out[:, 0] = wa
    np.divide(-D * alpha * wa, denom, out=out[:, 1])
    np.multiply(D * wa, _log(w, positive), out=out[:, 2])
    return out


FORMS = {
    ModelKind.POWER_LAW: (_power, _power_jacobian),
    ModelKind.M1: (_m1, _m1_jacobian),
    ModelKind.M2: (_m2, _m2_jacobian),
    ModelKind.M3: (_m3, _m3_jacobian),
    ModelKind.M4: (_m4, _m4_jacobian),
}


def eval_model(kind: ModelKind, params: Sequence[float], n):
    """Evaluate the model at event count(s) n >= 0.

    Accepts a scalar or array n and returns a matching float or array.
    """
    p = _check_arity(kind, params)
    out, _ = FORMS[kind][0](p, np.asarray(n, dtype=float))
    return float(out) if np.isscalar(n) else out


def model_gradient(kind: ModelKind, params: Sequence[float], n) -> np.ndarray:
    """Partial derivatives of the model value with respect to each parameter.

    Returns an array of shape (len(n), arity) with columns in PARAM_NAMES
    order.  These are the exact gradients the fitting solver uses.
    """
    p = _check_arity(kind, params)
    n_arr = np.atleast_1d(np.asarray(n, dtype=float))
    value_at, jacobian = FORMS[kind]
    _, parts = value_at(p, n_arr)
    return jacobian(p, n_arr, parts, np.empty((len(n_arr), len(p))), n_arr > 0)
