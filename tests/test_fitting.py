"""Fit recovery on synthetic curves, asymptotes, and holdout model ranking."""

from __future__ import annotations

import numpy as np
import pytest

from metadiv import fitting
from metadiv.accumulation import AccumulationCurve
from metadiv.fitting import (
    FORMS,
    SATURATING,
    InsufficientDataError,
    ModelKind,
    _initial_params,
    asymptote,
    compare_models,
    eval_model,
    fit_model,
    fit_power_law,
    model_gradient,
)

LOG_GRID = np.unique(np.round(np.geomspace(1, 1e5, 50)).astype(int))


def synthetic_curve(kind: ModelKind, params, ns=LOG_GRID) -> AccumulationCurve:
    values = eval_model(kind, params, ns.astype(float))
    return AccumulationCurve(
        points=tuple((int(n), float(v)) for n, v in zip(ns, values)),
        statistic="diversity",
    )


class TestPowerLawFit:
    # Published per-novel parameter pairs seed the synthetic recovery check.
    @pytest.mark.parametrize("c_true,alpha_true", [(6.7, 0.68), (6.9, 0.66), (11.1, 0.59)])
    def test_recovers_generating_parameters(self, c_true, alpha_true):
        ns = np.unique(np.round(np.geomspace(10, 1e5, 40)).astype(int))
        fit = fit_power_law(synthetic_curve(ModelKind.POWER_LAW, (c_true, alpha_true), ns))
        assert fit.params["C"] == pytest.approx(c_true, rel=1e-6)
        assert fit.params["alpha"] == pytest.approx(alpha_true, rel=1e-6)
        assert fit.residual < 1e-12
        assert fit.converged
        assert (fit.iterations, fit.stop_reason) == (0, None)

    def test_constant_curve(self):
        curve = AccumulationCurve(points=((1, 5.0), (10, 5.0), (100, 5.0)))
        fit = fit_power_law(curve)
        assert fit.params["C"] == pytest.approx(5.0, rel=1e-12)
        assert fit.params["alpha"] == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law(AccumulationCurve(points=((1, 1.0), (2, 2.0))))

    def test_nonpositive_values_rejected(self):
        curve = AccumulationCurve(points=((1, 0.0), (2, 2.0), (3, 3.0)))
        with pytest.raises(ValueError):
            fit_power_law(curve)

    # exp of the intercept overflows, or underflows to 0, without a numpy warning
    @pytest.mark.parametrize("points, C", [
        (((3, 1.0), (4, 2e-320), (5, 3e-320)), np.inf),
        (((10, 1e-300), (11, 1e-200), (12, 1e-100)), 0.0),
    ], ids=["overflow", "underflow"])
    def test_c_out_of_float_range_is_not_converged(self, points, C):
        fit = fit_power_law(AccumulationCurve(points=points))
        assert fit.params["C"] == C
        assert fit.converged is False


def _random_params(kind: ModelKind, rng) -> np.ndarray:
    d = rng.uniform(2.0, 200.0)
    if kind is ModelKind.M1:
        return np.array([d, rng.uniform(1e-4, 1e-2)])
    if kind is ModelKind.M2:
        return np.array([d, rng.uniform(50.0, 2e4)])
    if kind is ModelKind.M3:
        c = rng.uniform(50.0, 2e4)
        return np.array([d, rng.uniform(0.0, 0.5 * c), c])
    return np.array([d, rng.uniform(50.0, 2e4), rng.uniform(0.2, 3.0)])


class TestSaturatingFit:
    def test_m4_noiseless_recovery(self):
        fit = fit_model(synthetic_curve(ModelKind.M4, (100.0, 5000.0, 0.8)), ModelKind.M4)
        assert fit.converged
        for name, expected in zip(("D", "c", "alpha"), (100.0, 5000.0, 0.8)):
            assert fit.params[name] == pytest.approx(expected, rel=1e-4)

    def test_m2_noiseless_recovery(self):
        fit = fit_model(synthetic_curve(ModelKind.M2, (50.0, 1000.0)), ModelKind.M2)
        assert fit.converged
        assert fit.stop_reason in ("param-tol", "cost-tol")
        assert 1 <= fit.iterations < fitting.MAX_ITER
        assert fit.params["D"] == pytest.approx(50.0, rel=1e-6)
        assert fit.params["c"] == pytest.approx(1000.0, rel=1e-6)

    @pytest.mark.parametrize("kind", [ModelKind.M1, ModelKind.M2, ModelKind.M3, ModelKind.M4])
    def test_random_recovery(self, kind):
        rng = np.random.default_rng(hash(kind.value) % 2**32)
        for _ in range(5):
            true = _random_params(kind, rng)
            fit = fit_model(synthetic_curve(kind, true), kind)
            assert fit.converged
            recovered = fit.param_vector()
            rel = np.abs(recovered - true) / np.maximum(np.abs(true), 1e-12)
            assert np.max(rel) < 1e-3

    def test_two_points_insufficient(self):
        curve = AccumulationCurve(points=((1, 1.0), (2, 2.0)))
        with pytest.raises(InsufficientDataError):
            fit_model(curve, ModelKind.M4)

    def test_power_law_is_not_saturating(self):
        with pytest.raises(ValueError):
            fit_model(synthetic_curve(ModelKind.M2, (50.0, 1000.0)), ModelKind.POWER_LAW)

    def test_flat_curve_converges_to_flat_model(self):
        curve = AccumulationCurve(points=tuple((n, 1.0) for n in (1, 5, 20, 100, 1000)))
        fit = fit_model(curve, ModelKind.M4)
        assert fit.predict(np.array([10.0, 1e4])) == pytest.approx([1.0, 1.0], abs=1e-3)
        # c and alpha end on their floors; only D on its floor is not converged
        assert (fit.params["c"], fit.params["alpha"], fit.converged) == (1e-12, 1e-12, True)

    @pytest.mark.parametrize("kind", SATURATING)
    def test_d_on_its_floor_is_not_converged(self, kind):
        # Far below the floor of D, 1e-12: no model value can come near the curve
        curve = AccumulationCurve(points=tuple((n, 1e-320 * n) for n in range(1, 40)))
        fit = fit_model(curve, kind)
        assert fit.params["D"] == FORMS[kind].floors[0]
        assert fit.converged is False

    def test_non_convergence_is_a_state_not_an_exception(self, monkeypatch):
        monkeypatch.setattr("metadiv.fitting.MAX_ITER", 1)
        fit = fit_model(synthetic_curve(ModelKind.M4, (100.0, 5000.0, 0.8)), ModelKind.M4)
        assert fit.converged is False
        assert (fit.iterations, fit.stop_reason) == (1, "max-iter")
        assert fit.residual >= 0.0

    # Curves whose arithmetic leaves float range: near the smallest subnormal
    # M2's c runs to infinity at a cost that underflows to 0, and near the
    # largest float M4's cost overflows.  Either would raise a numpy warning,
    # which filterwarnings turns into an error here.
    @pytest.mark.parametrize("scale, kind", [(1e-320, ModelKind.M2), (1e300, ModelKind.M4)])
    def test_non_finite_fit_is_not_converged(self, scale, kind):
        curve = AccumulationCurve(points=tuple((n, scale * n) for n in range(1, 40)))
        fit = fit_model(curve, kind)
        assert fit.converged is False
        assert not np.isfinite([*fit.params.values(), fit.residual]).all()
        assert len(compare_models(curve, 20)) == len(SATURATING)

    def test_no_damping_reduces_the_cost(self, monkeypatch):
        """Every trial step raises the cost: the fit stops at its cold start."""
        kind = ModelKind.M2
        form = FORMS[kind].form
        calls = []

        def rising(p, n):  # the cold start's value, then a worse one for every trial
            value, jacobian = form(p, n)
            calls.append(p)
            return (value + 1e9 if len(calls) > 1 else value), jacobian

        curve = synthetic_curve(kind, (50.0, 1000.0))
        monkeypatch.setitem(FORMS, kind, FORMS[kind]._replace(form=rising))
        fit = fit_model(curve, kind)
        assert (fit.iterations, fit.stop_reason, fit.converged) == (1, "damping-exhausted", False)
        start = np.maximum(_initial_params(kind, curve.ns, curve.values), FORMS[kind].floors)
        assert list(fit.params.values()) == start.tolist()
        assert len(calls) == 1 + 16  # lam = 1e-3, 1e-2, ..., 1e12

    def test_singular_solve_is_retried_with_more_damping(self, monkeypatch):
        solve = np.linalg.solve
        calls = []

        def singular_once(a, b):
            calls.append(a)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        fit = fit_model(synthetic_curve(ModelKind.M2, (50.0, 1000.0)), ModelKind.M2)
        # The retry adds ten times the damping of the failed solve to the diagonal.
        first, retry = calls[0], calls[1]
        assert np.all(np.diag(retry) > np.diag(first))
        assert fit.converged is True
        assert fit.params["D"] == pytest.approx(50.0, rel=1e-6)
        assert fit.params["c"] == pytest.approx(1000.0, rel=1e-6)


def _reference_fit(curve: AccumulationCurve, kind: ModelKind):
    """The damped Gauss-Newton loop on the public ``eval_model`` and
    ``model_gradient``, which evaluate the model afresh for every Jacobian.

    Returns (params, residual, converged) for ``fit_model`` to match exactly.
    """
    names = FORMS[kind].names
    n = curve.ns
    v = curve.values
    floor = np.array(FORMS[kind].floors)

    p = np.maximum(_initial_params(kind, n, v), floor)
    r = v - eval_model(kind, p, n)
    cost = float(r @ r)
    lam = 1e-3
    converged = False

    for _ in range(fitting.MAX_ITER):
        jac = model_gradient(kind, p, n)
        grad = jac.T @ r
        hess = jac.T @ jac
        scale = np.diag(hess).copy()
        scale[scale <= 0] = 1e-12

        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + lam * np.diag(scale), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.maximum(p + step, floor)
            r_new = v - eval_model(kind, p_new, n)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break

        rel_param = float(np.max(np.abs(p_new - p) / np.maximum(np.abs(p), 1e-12)))
        rel_cost = abs(cost - cost_new) / max(cost, 1e-300)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam * 0.3, 1e-12)
        if rel_param < fitting.REL_PARAM_TOL or rel_cost < fitting.REL_COST_TOL:
            converged = True
            break

    params = {name: float(val) for name, val in zip(names, p)}
    return params, float(np.sqrt(cost / len(n))), converged


# 300 noisy points, n = 100 ... 30,000, from each model form: c = 4,000 for
# M2-M4, and M1 reaches half its asymptote there.
ORACLE_FORMS = {
    ModelKind.POWER_LAW: (6.0, 0.5),
    ModelKind.M1: (1500.0, np.log(2.0) / 4e3),
    ModelKind.M2: (1500.0, 4e3),
    ModelKind.M3: (1500.0, 800.0, 4e3),
    ModelKind.M4: (1500.0, 4e3, 0.6),
}
# (generating form, fitted model) pairs whose fit runs to MAX_ITER.
ORACLE_MAX_ITER = {(ModelKind.POWER_LAW, ModelKind.M4), (ModelKind.M1, ModelKind.M3)}


def _oracle_curve(form: ModelKind) -> AccumulationCurve:
    n = np.arange(1, 301) * 100.0
    rng = np.random.default_rng(0)
    values = eval_model(form, ORACLE_FORMS[form], n) * (1.0 + 0.002 * rng.standard_normal(n.size))
    return AccumulationCurve(points=tuple((int(k), float(x)) for k, x in zip(n, values)))


class TestSolverOracle:
    @pytest.mark.parametrize("kind", SATURATING, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("form", list(ORACLE_FORMS), ids=lambda form: form.value)
    def test_fit_equals_reference(self, form, kind):
        curve = _oracle_curve(form)
        fit = fit_model(curve, kind)
        assert (fit.params, fit.residual, fit.converged) == _reference_fit(curve, kind)
        if (form, kind) in ORACLE_MAX_ITER:
            assert (fit.iterations, fit.stop_reason) == (fitting.MAX_ITER, "max-iter")


class TestAsymptote:
    def test_returns_fitted_d(self):
        fit = fit_model(synthetic_curve(ModelKind.M4, (100.0, 5000.0, 0.8)), ModelKind.M4)
        assert asymptote(fit) == pytest.approx(100.0, rel=1e-4)

    def test_m2(self):
        fit = fit_model(synthetic_curve(ModelKind.M2, (50.0, 1000.0)), ModelKind.M2)
        assert asymptote(fit) == pytest.approx(50.0, rel=1e-6)

    def test_power_law_has_none(self):
        fit = fit_power_law(synthetic_curve(ModelKind.POWER_LAW, (6.7, 0.68)))
        with pytest.raises(ValueError):
            asymptote(fit)


class TestCompareModels:
    def test_m4_generated_curve_ranks_m4_first(self):
        curve = synthetic_curve(ModelKind.M4, (100.0, 5000.0, 0.8))
        ranking = compare_models(curve, train_limit=10_000)
        assert ranking[0].kind is ModelKind.M4
        assert ranking[0].holdout_rmse < 1e-3

    def test_m2_generated_curve_m2_and_m3_near_zero(self):
        curve = synthetic_curve(ModelKind.M2, (50.0, 1000.0))
        ranking = compare_models(curve, train_limit=10_000)
        by_kind = {rm.kind: rm.holdout_rmse for rm in ranking}
        assert by_kind[ModelKind.M2] == pytest.approx(0.0, abs=1e-6)
        # M3 with b = 0 contains M2, so it must match the data as well.
        assert by_kind[ModelKind.M3] == pytest.approx(0.0, abs=1e-4)

    def test_train_limit_beyond_curve(self):
        curve = synthetic_curve(ModelKind.M2, (50.0, 1000.0))
        with pytest.raises(InsufficientDataError):
            compare_models(curve, train_limit=10**6)

    def test_ascending_by_holdout(self):
        curve = synthetic_curve(ModelKind.M4, (80.0, 2000.0, 0.5))
        ranking = compare_models(curve, train_limit=10_000)
        rmses = [rm.holdout_rmse for rm in ranking if rm.fit.converged]
        assert rmses == sorted(rmses)

