"""Model evaluation: point values, nesting identities, analytic gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metadiv.models import FORMS, PARAM_NAMES, SATURATING, ModelKind, eval_model, model_gradient

N_GRID = np.array([0.0, 1.0, 10.0, 500.0, 10_000.0, 1e6])


class TestEvalModel:
    def test_m1_zero_at_origin(self):
        assert eval_model(ModelKind.M1, (37.0, 0.004), 0.0) == 0.0

    def test_m2_half_way_at_c(self):
        assert eval_model(ModelKind.M2, (50.0, 1000.0), 1000.0) == pytest.approx(25.0)

    def test_m3_at_origin(self):
        assert eval_model(ModelKind.M3, (10.0, 2.0, 4.0), 0.0) == pytest.approx(5.0)

    def test_m4_reaches_asymptote(self):
        value = eval_model(ModelKind.M4, (7.0, 3.0, 1.3), 1e12)
        assert value == pytest.approx(7.0, rel=1e-6)

    def test_power_law(self):
        assert eval_model(ModelKind.POWER_LAW, (6.7, 0.68), 1.0) == pytest.approx(6.7)

    def test_vectorized(self):
        out = eval_model(ModelKind.M2, (50.0, 1000.0), np.array([1000.0, 3000.0]))
        assert out == pytest.approx([25.0, 37.5])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            eval_model(ModelKind.M2, (50.0, 1000.0, 1.0), 10.0)
        with pytest.raises(ValueError):
            eval_model(ModelKind.M4, (7.0, 3.0), 10.0)


class TestNesting:
    def test_m3_with_zero_b_is_m2(self):
        m3 = eval_model(ModelKind.M3, (42.0, 0.0, 800.0), N_GRID)
        m2 = eval_model(ModelKind.M2, (42.0, 800.0), N_GRID)
        assert m3 == pytest.approx(m2, rel=1e-14)

    def test_m4_with_unit_alpha_is_m2(self):
        m4 = eval_model(ModelKind.M4, (42.0, 800.0, 1.0), N_GRID)
        m2 = eval_model(ModelKind.M2, (42.0, 800.0), N_GRID)
        assert m4 == pytest.approx(m2, rel=1e-14)


class TestMonotonicity:
    @pytest.mark.parametrize("kind", sorted(SATURATING, key=lambda k: k.value))
    def test_non_decreasing_in_n(self, kind):
        rng = np.random.default_rng(99)
        for _ in range(200):
            params = _random_params(kind, rng)
            n1, n2 = np.sort(rng.uniform(0.0, 1e6, size=2))
            v1 = eval_model(kind, params, n1)
            v2 = eval_model(kind, params, n2)
            assert v1 <= v2 + 1e-9 * max(1.0, abs(v2))


def _random_params(kind: ModelKind, rng) -> np.ndarray:
    d = rng.uniform(2.0, 200.0)
    if kind is ModelKind.M1:
        return np.array([d, rng.uniform(1e-4, 1e-2)])
    if kind is ModelKind.M2:
        return np.array([d, rng.uniform(50.0, 2e4)])
    if kind is ModelKind.M3:
        c = rng.uniform(50.0, 2e4)
        return np.array([d, rng.uniform(0.0, 0.5 * c), c])
    if kind is ModelKind.M4:
        return np.array([d, rng.uniform(50.0, 2e4), rng.uniform(0.2, 3.0)])
    return np.array([rng.uniform(1.0, 20.0), rng.uniform(0.3, 0.9)])


def _central_difference(kind, params, n, j, h):
    up = np.array(params, dtype=float)
    down = up.copy()
    up[j] += h
    down[j] -= h
    return (eval_model(kind, up, n) - eval_model(kind, down, n)) / (2 * h)


class TestGradients:
    @pytest.mark.parametrize("kind", list(PARAM_NAMES))
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(1234)
        n = np.array([1.0, 17.0, 400.0, 9_000.0, 120_000.0])
        for _ in range(25):
            params = _random_params(kind, rng)
            grad = model_gradient(kind, params, n)
            for j, value in enumerate(params):
                h = max(abs(value), 1e-3) * 1e-6
                approx = _central_difference(kind, params, n, j, h)
                # Entries far below the finite-difference noise floor are
                # indistinguishable from zero; the unit floor keeps the
                # check relative wherever the derivative is meaningful.
                scale = np.maximum(np.maximum(np.abs(approx), np.abs(grad[:, j])), 1.0)
                assert np.all(np.abs(grad[:, j] - approx) / scale < 1e-5)

    def test_gradient_shape(self):
        grad = model_gradient(ModelKind.M3, (10.0, 1.0, 5.0), np.arange(4.0))
        assert grad.shape == (4, 3)

    def test_m4_gradient_finite_at_origin(self):
        grad = model_gradient(ModelKind.M4, (10.0, 5.0, 0.8), np.array([0.0, 1.0]))
        assert np.all(np.isfinite(grad))


def _reference_value(kind, p, n):
    """Each model value written out in one expression, as ``eval_model`` must compute it."""
    if kind is ModelKind.POWER_LAW:
        C, alpha = p
        return C * n**alpha
    if kind is ModelKind.M1:
        D, alpha = p
        return D * (1.0 - np.exp(-alpha * n))
    if kind is ModelKind.M2:
        D, c = p
        return D * n / (n + c)
    if kind is ModelKind.M3:
        D, b, c = p
        return D * (n + b) / (n + c)
    D, c, alpha = p
    return D * (n / (n + c)) ** alpha


def _reference_gradient(kind, p, n):
    """Each Jacobian written out column by column, with n = 0 masked out of the logarithms."""
    if kind is ModelKind.POWER_LAW:
        C, alpha = p
        na = n**alpha
        logn = np.where(n > 0, np.log(np.where(n > 0, n, 1.0)), 0.0)
        return np.column_stack([na, C * na * logn])
    if kind is ModelKind.M1:
        D, alpha = p
        decay = np.exp(-alpha * n)
        return np.column_stack([1.0 - decay, D * n * decay])
    if kind is ModelKind.M2:
        D, c = p
        denom = n + c
        return np.column_stack([n / denom, -D * n / denom**2])
    if kind is ModelKind.M3:
        D, b, c = p
        denom = n + c
        return np.column_stack([(n + b) / denom, D / denom, -D * (n + b) / denom**2])
    D, c, alpha = p
    w = n / (n + c)
    wa = w**alpha
    logw = np.where(n > 0, np.log(np.where(n > 0, w, 1.0)), 0.0)
    return np.column_stack([wa, -D * alpha * wa / (n + c), D * wa * logw])


def _decade_params(kind, unit):
    """Parameters from u in [0, 1]: D, C, c and b over many decades, alpha
    where n**alpha and w**alpha stay finite."""
    spans = {"D": (-3, 6), "C": (-3, 6), "c": (-12, 7), "b": (-12, 7), "alpha": (-3, 0.5)}
    return np.array([10.0 ** (spans[name][0] + u * (spans[name][1] - spans[name][0]))
                     for name, u in zip(PARAM_NAMES[kind], unit)])


KINDS = st.sampled_from(list(ModelKind))
UNITS = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)


class TestReferenceFormulas:
    @given(kind=KINDS, unit=UNITS, ns=st.lists(st.integers(0, 10**7), min_size=1, max_size=40))
    def test_bit_equal_to_reference(self, kind, unit, ns):
        # n includes 0, where the logarithms are masked.
        p = _decade_params(kind, unit)
        n = np.array(ns, dtype=float)
        value = eval_model(kind, p, n)
        assert value.tobytes() == _reference_value(kind, p, n).tobytes()
        # A scalar n is evaluated as a 0-d array: numpy scalars may round
        # n**alpha differently.
        scalar = np.asarray(ns[0], dtype=float)
        assert eval_model(kind, p, ns[0]) == float(_reference_value(kind, p, scalar))
        assert model_gradient(kind, p, n).tobytes() == _reference_gradient(kind, p, n).tobytes()

    @given(kind=KINDS, unit=UNITS, ns=st.lists(st.integers(1, 10**7), min_size=1, max_size=40))
    def test_solver_forms_equal_public_functions(self, kind, unit, ns):
        # The fitting solver calls the pairs directly, with unmasked logarithms.
        p = _decade_params(kind, unit)
        n = np.array(ns, dtype=float)
        value_at, jacobian = FORMS[kind]
        value, parts = value_at(p, n)
        assert np.array_equal(value, eval_model(kind, p, n))
        jac = jacobian(p, n, parts, np.empty((len(n), len(p))), None)
        assert np.array_equal(jac, model_gradient(kind, p, n))
