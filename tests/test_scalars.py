import contextlib
import hashlib
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import liegroup_maps
from liegroup_maps import scalars
from liegroup_maps.core import ChartDomainError
from liegroup_maps.scalars import (
    DEXPINV_DOMAIN_LIMIT,
    SERIES_WINDOW,
    SMALL_ANGLE_THRESHOLD,
    _adform_quad,
    _adform_quart,
    _dexp_lin_rate,
    _dexp_lin_rate2,
    _dexp_quad,
    _dexp_quad_rate,
    _dexp_quad_rate2,
    _dexpinv_quad,
    _dexpinv_quad_rate,
    _dexpinv_quad_rate2,
    _inv_sinc,
    _sinc,
    _sinc_sq_half,
    ensure_dexp_inv_domain,
    force_branch,
)

mp.mp.dps = 50

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# 50-digit reference implementations (closed trig forms are harmless in
# extended precision; cancellation only matters in doubles)
# ---------------------------------------------------------------------------


def _ref_alpha(x):
    return mp.sin(x) / x


def _ref_beta(x):
    h = x / 2
    return (mp.sin(h) / h) ** 2


def _ref_gamma(x):
    h = x / 2
    return h * mp.cos(h) / mp.sin(h)


def _ref_inv_beta(x):
    return 1 / _ref_beta(x)


def _ref_delta(x):
    return (1 - _ref_alpha(x)) / x**2


def _ref_dexp_lin_rate(x):
    return (_ref_alpha(x) - _ref_beta(x)) / x**2


def _ref_dexp_quad_rate(x):
    return (_ref_beta(x) / 2 - 3 * _ref_delta(x)) / x**2


def _ref_dexpinv_quad(x):
    return (1 - _ref_gamma(x)) / x**2


def _ref_dexpinv_quad_rate(x):
    return (_ref_inv_beta(x) + _ref_gamma(x) - 2) / x**4


def _ref_dexp_lin_rate2(x):
    return (x**2 * mp.cos(x) - 5 * x * mp.sin(x) + 16 * mp.sin(x / 2) ** 2) / x**6


def _ref_dexp_quad_rate2(x):
    return (x**2 * mp.sin(x) + 7 * x * mp.cos(x) - 15 * mp.sin(x) + 8 * x) / x**7


def _ref_dexpinv_quad_rate2(x):
    g = _ref_gamma(x)
    return ((g * _ref_dexpinv_quad(x) - mp.mpf(1) / 4
             - 2 * _ref_dexp_lin_rate(x) / _ref_beta(x) ** 2) / x**4
            - 4 * _ref_dexpinv_quad_rate(x) / x**2)


def _ref_adform_quad(x):
    return (2 - (1 + 3 * _ref_alpha(x)) / (2 * _ref_beta(x))) / x**2


def _ref_adform_quart(x):
    return (1 - (1 + _ref_alpha(x)) / (2 * _ref_beta(x))) / x**4


def _ref_inv_sinc(x):
    return x / mp.sin(x)


KERNELS = [
    (_sinc, _ref_alpha, TWO_PI - 1e-6),
    (_sinc_sq_half, _ref_beta, TWO_PI - 1e-6),
    (_dexp_quad, _ref_delta, TWO_PI - 1e-6),
    (_dexp_lin_rate, _ref_dexp_lin_rate, TWO_PI - 1e-6),
    (_dexp_quad_rate, _ref_dexp_quad_rate, TWO_PI - 1e-6),
    (_dexpinv_quad, _ref_dexpinv_quad, TWO_PI - 1e-6),
    (_dexpinv_quad_rate, _ref_dexpinv_quad_rate, TWO_PI - 1e-6),
    (_dexp_lin_rate2, _ref_dexp_lin_rate2, TWO_PI - 1e-6),
    (_dexp_quad_rate2, _ref_dexp_quad_rate2, TWO_PI - 1e-6),
    (_dexpinv_quad_rate2, _ref_dexpinv_quad_rate2, TWO_PI - 1e-6),
    (_adform_quad, _ref_adform_quad, TWO_PI - 1e-6),
    (_adform_quart, _ref_adform_quart, TWO_PI - 1e-6),
    # phi/sin(phi) has a pole at pi; its callers never use it above pi - 1e-3
    (_inv_sinc, _ref_inv_sinc, math.pi - 1e-3),
]


def sweep_angles(upper):
    pts = np.concatenate([
        np.logspace(-4, np.log10(0.99 * min(upper, SERIES_WINDOW)), 40),
        np.linspace(min(upper, SERIES_WINDOW), upper, 40),
        # branch-boundary neighborhoods
        np.array([
            SMALL_ANGLE_THRESHOLD - 1e-9, SMALL_ANGLE_THRESHOLD + 1e-9,
            0.5 - 1e-9, 0.5 + 1e-9,
            SERIES_WINDOW - 1e-9, min(SERIES_WINDOW + 1e-9, upper),
        ]),
        np.array([0.25 * upper, 0.5 * upper, math.pi / 2, upper]),
    ])
    return np.unique(pts[pts <= upper])


def test_kernels_match_extended_precision_sweep():
    for impl, ref, upper in KERNELS:
        for phi in sweep_angles(upper):
            got = impl(float(phi))
            want = ref(mp.mpf(float(phi)))
            err = abs(mp.mpf(got) - want)
            tol = 2e-13 * abs(want) + 5e-15
            assert err < tol, (
                f"{impl.__name__}({phi!r}): got {got!r}, want {mp.nstr(want, 20)},"
                f" err {mp.nstr(err, 3)}"
            )


def test_kernel_values_at_zero_are_exact_limits():
    assert _sinc(0.0) == 1.0
    assert _sinc_sq_half(0.0) == 1.0
    assert _dexp_quad(0.0) == 1.0 / 6.0
    assert _dexp_lin_rate(0.0) == -1.0 / 12.0
    assert _dexp_quad_rate(0.0) == pytest.approx(-1.0 / 60.0, rel=1e-16)
    assert _dexpinv_quad(0.0) == 1.0 / 12.0
    assert _dexpinv_quad_rate(0.0) == pytest.approx(1.0 / 360.0, rel=1e-16)
    assert _dexp_lin_rate2(0.0) == pytest.approx(1.0 / 90.0, rel=1e-16)
    assert _dexp_quad_rate2(0.0) == pytest.approx(1.0 / 630.0, rel=1e-16)
    assert _dexpinv_quad_rate2(0.0) == pytest.approx(1.0 / 3780.0, rel=1e-16)
    assert _adform_quad(0.0) == 1.0 / 12.0
    assert _adform_quart(0.0) == pytest.approx(-1.0 / 720.0, rel=1e-16)
    assert _inv_sinc(0.0) == 1.0


def test_bundle_values_at_pi():
    phi = math.pi
    assert abs(_sinc(phi)) < 1e-15
    assert_allclose(_sinc_sq_half(phi), 4.0 / math.pi**2, rtol=1e-15)
    assert_allclose(_dexp_quad(phi), 1.0 / math.pi**2, rtol=1e-14)


def test_bundle_internal_identities():
    # delta * phi**2 == 1 - alpha on both branches
    for phi in sweep_angles(TWO_PI - 1e-5):
        phi = float(phi)
        assert_allclose(_dexp_quad(phi) * phi * phi, 1.0 - _sinc(phi), rtol=0,
                        atol=1e-13)


def test_gamma_domain_error():
    # gamma and inv_beta have poles at 2*pi; the maps that use them guard
    # the angle first
    with pytest.raises(ChartDomainError, match="dexp-inverse domain exceeded"):
        ensure_dexp_inv_domain(TWO_PI - 1e-7)


def test_alpha_beta_delta_available_beyond_domain():
    # the kernels without poles stay usable at and past 2*pi
    for phi in (TWO_PI - 1e-7, TWO_PI, 7.5, 12.0):
        assert_allclose(_sinc(phi), math.sin(phi) / phi, rtol=1e-13,
                        atol=1e-16)
        assert np.isfinite(_sinc_sq_half(phi))
        assert np.isfinite(_dexp_quad(phi))


def test_ensure_domain_boundary():
    ensure_dexp_inv_domain(DEXPINV_DOMAIN_LIMIT - 1e-12)
    with pytest.raises(ChartDomainError):
        ensure_dexp_inv_domain(DEXPINV_DOMAIN_LIMIT)
    with pytest.raises(ChartDomainError):
        ensure_dexp_inv_domain(10.0)


def test_natural_seam_is_continuous():
    lo = SMALL_ANGLE_THRESHOLD * (1.0 - 1e-9)
    hi = SMALL_ANGLE_THRESHOLD * (1.0 + 1e-9)
    for kernel in (_sinc, _sinc_sq_half, _dexp_quad):
        assert_allclose(kernel(lo), kernel(hi), rtol=1e-12)


def test_forced_branches_agree_at_seam():
    for phi in (SMALL_ANGLE_THRESHOLD - 1e-9, SMALL_ANGLE_THRESHOLD + 1e-9):
        for kernel in (_sinc, _sinc_sq_half):
            with force_branch("series"):
                a = kernel(phi)
            with force_branch("closed"):
                b = kernel(phi)
            assert_allclose(a, b, rtol=1e-13)


def test_force_branch_takes_effect():
    # far from the seam the two branches of sinc differ measurably at the
    # last few digits only if forcing actually switches the evaluation path
    phi = 2.0
    with force_branch("series"):
        a = _sinc(phi)
    with force_branch("closed"):
        b = _sinc(phi)
    assert_allclose(a, b, rtol=1e-14)
    assert a == _sinc(phi) or b == _sinc(phi)


def test_force_branch_closed_at_zero_returns_limit():
    with force_branch("closed"):
        assert _sinc(0.0) == 1.0
        assert _sinc_sq_half(0.0) == 1.0


# The 13 kernels that so3 and se3 import, and the digest of their bits on
# _pin_grid in the natural, forced-series and forced-closed branch modes.
_PINNED_KERNELS = (
    "_sinc", "_sinc_sq_half", "_dexp_quad", "_dexp_lin_rate",
    "_dexp_quad_rate", "_dexpinv_quad", "_dexpinv_quad_rate",
    "_dexp_lin_rate2", "_dexp_quad_rate2", "_dexpinv_quad_rate2",
    "_adform_quad", "_adform_quart", "_inv_sinc",
)
_PINNED_DIGEST = (
    "91c86823402069d58b3c4941a0fd86735e5ee982a15073f4b5d60a93566c69f0")


def _pin_grid(upper):
    edges = (SMALL_ANGLE_THRESHOLD, 0.5, SERIES_WINDOW)
    fixed = [0.0, 1e-8] + [e + d for e in edges for d in (-1e-12, 1e-12)]
    # dense enough that a closed form rounded differently (t ** 2 for t * t)
    # moves at least one value by an ulp
    return fixed + [float(p) for p in np.linspace(0.0, upper, 10001)[1:]]


def _kernel_digest():
    digest = hashlib.sha256()
    for mode in (None, "series", "closed"):
        with force_branch(mode) if mode else contextlib.nullcontext():
            for name in _PINNED_KERNELS:
                upper = (math.pi - 1e-3 if name == "_inv_sinc"
                         else TWO_PI - 1e-6)
                kernel = getattr(scalars, name)
                for phi in _pin_grid(upper):
                    digest.update(float.hex(kernel(phi)).encode() + b"\n")
    return digest.hexdigest()


def test_kernel_values_are_pinned():
    # Every kernel returns the same double on both sides of every branch
    # edge and over the whole chart, however the branch rule is written.
    assert _kernel_digest() == _PINNED_DIGEST


# the series table of each kernel row
_KERNEL_TABLES = {
    "_sinc": "_SINC_SERIES", "_sinc_sq_half": "_SINC_SQ_HALF_SERIES",
    "_dexp_quad": "_DEXP_QUAD_SERIES",
    "_dexp_lin_rate": "_DEXP_LIN_RATE_SERIES",
    "_dexp_quad_rate": "_DEXP_QUAD_RATE_SERIES",
    "_dexpinv_quad": "_DEXPINV_QUAD_SERIES",
    "_dexpinv_quad_rate": "_DEXPINV_QUAD_RATE_SERIES",
    "_dexp_lin_rate2": "_DEXP_LIN_RATE2_SERIES",
    "_dexp_quad_rate2": "_DEXP_QUAD_RATE2_SERIES",
    "_dexpinv_quad_rate2": "_DEXPINV_QUAD_RATE2_SERIES",
    "_adform_quad": "_ADFORM_QUAD_SERIES",
    "_adform_quart": "_ADFORM_QUART_SERIES",
    "_inv_sinc": "_INV_SINC_SERIES",
}


def test_series_heads_return_the_full_table_double():
    # below _HEAD_EDGE Horner runs on a head of the table; on a dense grid of
    # the band, on both sides of its edge and in every branch mode, the kernel
    # returns the double of Horner on all 30 terms
    assert sorted(_KERNEL_TABLES) == sorted(_PINNED_KERNELS)
    edge = scalars._HEAD_EDGE
    grid = (np.linspace(0.0, edge, 4500, endpoint=False).tolist()
            + np.geomspace(1e-6 * edge, edge, 900, endpoint=False).tolist()
            + [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0),
               edge * (1.0 - 1e-9), edge * (1.0 + 1e-9), 2.0 * edge])
    for name, table_name in _KERNEL_TABLES.items():
        table = getattr(scalars, table_name)
        assert len(scalars._head(table)) < 30
        kernel = getattr(scalars, name)
        for mode in (None, "series", "closed"):
            with force_branch(mode) if mode else contextlib.nullcontext():
                for phi in grid:
                    if (name in ("_sinc", "_sinc_sq_half")
                            and not scalars._seam_use_series(phi)):
                        continue        # the closed branch: no table
                    assert kernel(phi) == scalars._poly_even(table, phi), (
                        name, mode, phi)


@pytest.mark.parametrize("mode", [None, "series", "closed"])
@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_non_finite_angle_raises_domain_error(phi, mode):
    # NaN and inf fail every window test; in every branch mode the rule
    # rejects them instead of returning NaN or a bare math domain error
    with force_branch(mode) if mode else contextlib.nullcontext():
        for name in _PINNED_KERNELS:
            with pytest.raises(ChartDomainError, match="must be finite"):
                getattr(scalars, name)(phi)


def test_force_branch_validation_and_restore():
    with pytest.raises(ValueError):
        with force_branch("fast"):
            pass
    try:
        with force_branch("series"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    # state restored: natural branch at large angle is the closed form
    assert _sinc(2.0) == math.sin(2.0) / 2.0


def test_force_branch_is_per_thread():
    # one thread evaluates under force_branch("closed") while another,
    # unforced, evaluates at the same time; each sees its own branch
    phi = 1e-3
    inside, done = threading.Barrier(2), threading.Barrier(2)
    seen = {}

    def look(label):
        inside.wait(timeout=10)
        seen[label] = (scalars._seam_use_series(phi), _sinc(phi))
        done.wait(timeout=10)

    def forced():
        with force_branch("closed"):
            look("closed")

    threads = [threading.Thread(target=forced),
               threading.Thread(target=look, args=("unforced",))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert seen["closed"] == (False, math.sin(phi) / phi)
    assert seen["unforced"] == (
        True, scalars._poly_even(scalars._SINC_SERIES, phi))


# ---------------------------------------------------------------------------
# Series tables: a second, independent route through exact rational series
# ---------------------------------------------------------------------------

# 30 table terms plus headroom for the deepest division, by s**3
_EXACT_TERMS = 36


class _Series:
    """Truncated power series in s = phi**2 with Fraction coefficients."""

    def __init__(self, coeffs):
        self.c = [Fraction(x) for x in coeffs]

    @classmethod
    def of(cls, term):
        return cls(term(k) for k in range(_EXACT_TERMS))

    def _lift(self, other):
        if isinstance(other, _Series):
            return other
        return _Series([other] + [0] * (len(self.c) - 1))

    def __add__(self, other):
        return _Series(a + b for a, b in zip(self.c, self._lift(other).c))

    __radd__ = __add__

    def __neg__(self):
        return _Series(-a for a in self.c)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        b = self._lift(other).c
        n = min(len(self.c), len(b))
        return _Series(sum(self.c[i] * b[k - i] for i in range(k + 1))
                       for k in range(n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._lift(other).c
        q = []
        for k in range(min(len(self.c), len(b))):
            acc = self.c[k] - sum(q[i] * b[k - i] for i in range(k))
            q.append(acc / b[0])
        return _Series(q)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def over_s(self, m):
        """Divide by s**m; the first m coefficients must vanish."""
        assert not any(self.c[:m])
        return _Series(self.c[m:])


def test_series_tables_are_correctly_rounded_exact_rationals():
    # Every table is rebuilt from sin/cos factorial series by exact series
    # quotients, following the defining formula in the scalars comments,
    # and every coefficient must equal its exact rational rounded once.
    f = math.factorial
    s = _Series.of(lambda k: int(k == 1))
    alpha = _Series.of(lambda k: Fraction((-1) ** k, f(2 * k + 1)))
    cos = _Series.of(lambda k: Fraction((-1) ** k, f(2 * k)))
    # sin(phi/2)/(phi/2): alpha at s/4
    sinc_half = _Series.of(lambda k: Fraction((-1) ** k, f(2 * k + 1) * 4**k))
    beta = sinc_half * sinc_half
    gamma = alpha / beta
    inv_beta = 1 / beta
    delta = (1 - alpha).over_s(1)
    lin_rate = (alpha - beta).over_s(1)
    dexpinv_quad = (1 - gamma).over_s(1)
    dexpinv_quad_rate = (inv_beta + gamma - 2).over_s(2)
    sin_half_sq = (1 - cos) / 2
    exact = {
        "_SINC_SERIES": alpha,
        "_SINC_SQ_HALF_SERIES": beta,
        "_DEXP_QUAD_SERIES": delta,
        "_DEXP_LIN_RATE_SERIES": lin_rate,
        "_DEXP_QUAD_RATE_SERIES": (beta / 2 - 3 * delta).over_s(1),
        "_DEXPINV_QUAD_SERIES": dexpinv_quad,
        "_DEXPINV_QUAD_RATE_SERIES": dexpinv_quad_rate,
        # odd numerators divided through by phi
        "_DEXP_LIN_RATE2_SERIES":
            (s * cos - 5 * s * alpha + 16 * sin_half_sq).over_s(3),
        "_DEXP_QUAD_RATE2_SERIES":
            (s * alpha + 7 * cos - 15 * alpha + 8).over_s(3),
        "_DEXPINV_QUAD_RATE2_SERIES":
            ((gamma * dexpinv_quad - Fraction(1, 4)
              - 2 * lin_rate / (beta * beta)).over_s(1)
             - 4 * dexpinv_quad_rate).over_s(1),
        "_ADFORM_QUAD_SERIES":
            (2 - (1 + 3 * alpha) / (2 * beta)).over_s(1),
        "_ADFORM_QUART_SERIES": (1 - (1 + alpha) / (2 * beta)).over_s(2),
        "_INV_SINC_SERIES": 1 / alpha,
    }
    for name, series in exact.items():
        want = tuple(float(c) for c in series.c[:30])
        assert len(want) == 30
        assert getattr(scalars, name) == want, name


def test_import_loads_only_numpy_runtime():
    # numpy is the only runtime dependency, and the tables are built with
    # integer arithmetic so that importing the package stays cheap
    src = os.path.dirname(os.path.dirname(liegroup_maps.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, liegroup_maps; print([m for m in "
            "('fractions', 'decimal', 'mpmath', 'scipy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
