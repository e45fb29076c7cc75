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

Each model is one row of ``FORMS``: its parameter names, the solver's
projection floors, the solver's cold start, and one function ``form(p, n)``
that returns the model value at n and a ``jacobian(out, positive)`` closure
over the intermediates of that value (``n + c``, ``w**alpha`` and the like).
``eval_model``, ``model_gradient`` and the solver in :mod:`metadiv.fitting`
all go through it, so each formula is written once.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

__all__ = ["ModelKind", "FORMS", "SATURATING", "eval_model", "model_gradient"]


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


# ``form(p, n)`` takes a float vector p of the model's arity and a float
# array n, and checks neither.  Its closure ``jacobian(out, positive)``
# writes the (len(n), arity) Jacobian at the same p into ``out``, masking
# the logarithms to ``positive`` (see ``_log``), and returns it.


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
