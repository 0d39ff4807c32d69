import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from liegroup_maps.core import hat3
from liegroup_maps.oracle import (
    _INV_TANGENT_SERIES,
    SeriesConfig,
    fd_directional,
    resolvent_cay,
    series_dexp,
    series_dexp_inv,
    series_exp,
)

RNG = np.random.default_rng(42)


def test_series_exp_matches_scipy():
    for _ in range(20):
        m = RNG.standard_normal((4, 4))
        assert_allclose(series_exp(m), expm(m), rtol=0, atol=1e-12)


def test_series_exp_scalar_case():
    m = np.array([[0.3]])
    assert_allclose(series_exp(m), [[math.exp(0.3)]], rtol=1e-15)


def test_series_exp_raises_without_convergence():
    m = 50.0 * np.eye(2)
    with pytest.raises(ValueError, match="did not converge"):
        series_exp(m, SeriesConfig(max_terms=10))


def test_series_dexp_is_exp_generating_function():
    # phi(z) = (exp(z) - 1)/z on a scalar
    for z in (0.3, -1.2, 2.0):
        got = series_dexp(np.array([[z]]))[0, 0]
        assert_allclose(got, (math.exp(z) - 1.0) / z, rtol=1e-14)


def test_series_dexp_inv_is_reciprocal_generating_function():
    for z in (0.4, -0.9, 1.7):
        got = series_dexp_inv(np.array([[z]]))[0, 0]
        assert_allclose(got, z / (math.exp(z) - 1.0), rtol=1e-13)


def test_series_dexp_and_inverse_cancel_on_matrices():
    for _ in range(10):
        m = RNG.standard_normal((3, 3)) * 0.4
        prod = series_dexp(m) @ series_dexp_inv(m)
        assert_allclose(prod, np.eye(3), atol=1e-13)


def test_inv_tangent_series_is_correctly_rounded_bernoulli():
    # Akiyama-Tanigawa in exact rationals, a second algorithm for B_k; it
    # gives B_1 = +1/2, the coefficient of z/(1 - exp(-z))
    n = len(_INV_TANGENT_SERIES)
    table = [Fraction(0)] * n
    bernoulli = []
    for m in range(n):
        table[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            table[j - 1] = j * (table[j - 1] - table[j])
        bernoulli.append(table[0])
    bernoulli[1] = -bernoulli[1]
    want = tuple(float(b / math.factorial(k)) for k, b in enumerate(bernoulli))
    assert _INV_TANGENT_SERIES == want


def test_series_dexp_inv_norm_cap():
    with pytest.raises(ValueError, match="too large"):
        series_dexp_inv(3.0 * np.eye(3))


def test_fd_directional_on_quadratic():
    # f(x) = outer(x, x) has exact directional derivative outer(u,x)+outer(x,u)
    def f(x):
        return np.outer(x, x)

    x = np.array([0.3, -1.0, 2.0])
    u = np.array([1.0, 0.5, -0.2])
    got = fd_directional(f, x, u, h=1e-5)
    want = np.outer(u, x) + np.outer(x, u)
    assert_allclose(got, want, atol=1e-9)


def test_resolvent_cay_scalar():
    got = resolvent_cay(np.array([[0.25]]))
    assert_allclose(got, [[1.25 / 0.75]], rtol=1e-14)


def test_resolvent_cay_skew_gives_rotation():
    for _ in range(10):
        m = hat3(RNG.standard_normal(3))
        r = resolvent_cay(m)
        assert_allclose(r.T @ r, np.eye(3), atol=1e-13)
        assert_allclose(np.linalg.det(r), 1.0, rtol=1e-13)


def test_resolvent_cay_rejects_singular():
    with pytest.raises(ValueError, match="ill-conditioned"):
        resolvent_cay(np.eye(2))
