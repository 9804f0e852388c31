import importlib
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ctx_mp_python, mp, mpf

import herglotz
from herglotz import extract, field, specfun
from herglotz.extract import extract_magnitude_data, radial_grid
from herglotz.field import random_field, sample_magnitude
from herglotz.harmonics import fourier2d_basis
from herglotz.specfun import (
    _ROW_TABLE_SIZE,
    CANCEL_LIMIT,
    ConvergenceError,
    SeriesBudget,
    bessel_bound,
    bessel_j,
    bessel_row,
    bessel_j_mp,
    bessel_product_integral,
    bessel_product_series,
    gauss_legendre,
    leggauss,
    gegenbauer,
    validate_order,
)


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_bessel_half_order_closed_form():
    # J_{1/2}(r) = sqrt(2/(pi r)) sin(r); the closed form is itself checked
    # against the series at several radii, including the zero at r = pi.
    for r in [0.3, 1.0, math.pi, 4.2, 9.7]:
        closed = math.sqrt(2.0 / (math.pi * r)) * math.sin(r)
        assert bessel_j(0.5, r) == pytest.approx(closed, rel=1e-12, abs=1e-15)
    assert abs(bessel_j(0.5, math.pi)) < 1e-15


def test_bessel_vs_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rs = np.linspace(0.0, 10.0, 41)
    for nu in [0, 1, 2, 5, 8, 0.5, 1.5, 4.5, 8.5]:
        ours = bessel_j(nu, rs)
        ref = scipy_special.jv(nu, rs)
        assert np.abs(ours - ref).max() < 1e-12


def test_bessel_reflection_exact():
    # negative integer orders reuse the positive-order series bit for bit
    for n in [1, 2, 5]:
        for r in [0.0, 0.7, 3.3]:
            assert bessel_j(-n, r) == (-1) ** n * bessel_j(n, r)


def test_bessel_rejects_bad_orders():
    with pytest.raises(ValueError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1, -1.0)


def test_budget_validation_and_exhaustion():
    with pytest.raises(ValueError):
        SeriesBudget(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesBudget(max_terms=0)
    with pytest.raises(ConvergenceError) as exc:
        bessel_j(0, 40.0, SeriesBudget(max_terms=5))
    assert exc.value.terms == 5
    assert exc.value.partial is not None


def test_bessel_array_input():
    rs = np.array([0.0, 0.5, 2.0])
    vals = bessel_j(2, rs)
    assert vals.shape == (3,)
    assert vals[0] == 0.0
    assert vals[2] == pytest.approx(bessel_j(2, 2.0))


def test_bessel_j_refuses_a_cancelled_sum():
    # machine eps times the largest term of the nu = 0 series passes
    # CANCEL_LIMIT at r = 26.65; J_0(26.5) = 0.129877626 errs by 1.4e-6
    assert abs(bessel_j(0, 26.5) - 0.129877626) < 1e-5
    for nu, r in [(0, 27.0), (0, 40.0), (16, 40.0), (2.5, 300.0)]:
        with pytest.raises(ValueError, match=rf"J_{nu:g}\({r:g}\) is out of range") as exc:
            bessel_j(nu, r)
        term = float(str(exc.value).split("largest term ")[1].split()[0])
        assert np.finfo(float).eps * term > CANCEL_LIMIT
    # an array names its worst radius; a negative order is refused as its reflection
    with pytest.raises(ValueError, match=r"J_0\(40\)"):
        bessel_j(0, np.array([1.0, 40.0, 30.0]))
    with pytest.raises(ValueError, match=r"J_3\(30\)"):
        bessel_j(-3, 30.0)
    # far out the series overflows and runs out of budget, without a warning
    with pytest.raises(ConvergenceError):
        bessel_j(0, 3000.0)
    # every radius up to 12 stands, at every order up to 20
    for nu in [n / 2 for n in range(0, 41)]:
        bessel_j(nu, np.linspace(0.0, 12.0, 49))


def test_bessel_rows_are_evaluated_once_and_shared(monkeypatch):
    calls = []
    monkeypatch.setattr(specfun, "bessel_j", lambda nu, r: calls.append(nu) or bessel_j(nu, r))
    radii = radial_grid(48)
    row = bessel_row(1.5, radii)
    # keyed on the radii's values, not on the array object
    assert bessel_row(1.5, radii.copy()) is row and bessel_row(3 / 2, list(radii)) is row
    assert calls == [1.5]
    assert np.array_equal(row, bessel_j(1.5, radii))
    with pytest.raises(ValueError):
        row[0] = 0.0
    # another order, or other radii, make a row of their own
    assert not np.array_equal(bessel_row(0.5, radii), row)
    assert np.array_equal(bessel_row(1.5, radii[1:]), row[1:])
    assert len(calls) == 3
    # a scalar or a single radius is evaluated afresh and not tabled
    assert bessel_row(1.5, 0.5) == bessel_j(1.5, 0.5)
    bessel_row(1.5, [0.5])
    bessel_row(1.5, [0.5])
    assert len(calls) == 6 and specfun._bessel_row.cache_info().currsize == 3


def test_bessel_row_table_keeps_its_bound():
    radii = radial_grid(8)
    for k in range(_ROW_TABLE_SIZE + 10):
        bessel_row(k % 3, radii * (1 + k / 1000))
    assert specfun._bessel_row.cache_info().currsize == _ROW_TABLE_SIZE


def test_every_process_table_is_bounded():
    # the lru_cache tables of every herglotz module, walked as cold_tables
    # walks them, keep a bounded number of entries, so that a long-lived
    # process does not grow with the fields it sees
    tables = {}
    for info in pkgutil.iter_modules(herglotz.__path__):
        for obj in vars(importlib.import_module(f"herglotz.{info.name}")).values():
            if callable(getattr(obj, "cache_info", None)):
                tables[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    # leggauss is keyed on the rule size n alone: a run asks for a few small n
    # (the node counts of its polar rules and quadrature panels), each entry
    # two n-vectors
    assert tables.pop("herglotz.specfun.leggauss") is None
    assert {"herglotz.field._mp_bessel_row", "herglotz.specfun._bessel_row"} <= set(tables)
    assert all(size is not None for size in tables.values()), tables


def test_bound_values():
    assert bessel_bound(0, 5.0) == 1.0
    assert bessel_bound(1, 0.0) == 0.0
    # 2/(sqrt(pi) Gamma(5/2)) * 1^2 = 8/(3 pi)
    assert bessel_bound(2, 2.0) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-15)


def test_bound_dominates_on_lattice():
    rs = np.linspace(0.0, 12.0, 49)
    for nu in [0, 0.5, 1, 1.5, 2, 3, 4.5, 6]:
        bounds = np.array([bessel_bound(nu, r) for r in rs])
        assert np.all(np.abs(bessel_j(nu, rs)) <= bounds + 1e-15)


def test_bound_rejects_small_positive_orders():
    with pytest.raises(ValueError):
        bessel_bound(0.3, 1.0)


def test_gegenbauer_low_degrees():
    assert gegenbauer(0, 0.9, 0.4) == 1.0
    # C_1^lam(z) = 2 lam z
    assert gegenbauer(1, 0.7, -0.3) == pytest.approx(-0.42, rel=1e-14)
    # C_2^1(z) = 4 z^2 - 1 vanishes at z = 1/2
    assert abs(gegenbauer(2, 1.0, 0.5)) < 1e-14


def test_gegenbauer_exact_mode():
    assert gegenbauer(2, Fraction(1, 2), Fraction(0), exact=True) == Fraction(-1, 2)
    assert gegenbauer(3, Fraction(1, 2), Fraction(1, 3), exact=True) == Fraction(
        5, 2
    ) * Fraction(1, 27) - Fraction(3, 2) * Fraction(1, 3)
    assert gegenbauer(0, Fraction(2), Fraction(7, 5), exact=True) == 1
    # values of the explicit finite sum over (lam)_{m-k} / (k! (m-2k)!)
    for m, lam, z, value in [
        (5, Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)),
        (4, Fraction(1), Fraction(1, 5), Fraction(341, 625)),
        (6, Fraction(3, 2), Fraction(-2, 7), Fraction(347671, 268912)),
        (7, Fraction(2), Fraction(7, 5), Fraction(377117832, 78125)),
        (9, Fraction(1, 3), Fraction(1, 2), Fraction(-219713, 1594323)),
        (1, Fraction(5, 2), Fraction(-3, 4), Fraction(-15, 4)),
    ]:
        out = gegenbauer(m, lam, z, exact=True)
        assert isinstance(out, Fraction) and out == value


@pytest.mark.parametrize("m", [6, 10, 20, 30])
@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(3, 2)])
def test_gegenbauer_float_matches_exact(m, lam):
    zs = [Fraction(k, 64) for k in range(-64, 65)]
    exact = np.array([float(gegenbauer(m, lam, z, exact=True)) for z in zs])
    approx = gegenbauer(m, float(lam), np.array([float(z) for z in zs]))
    assert np.abs(approx - exact).max() <= 2e-15 * np.abs(exact).max()


def test_gegenbauer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gegenbauer(-1, 1.0, 0.0)
    with pytest.raises(ValueError):
        gegenbauer(2, 0.0, 0.0)


def test_product_series_trivial():
    assert bessel_product_series(0, 0, 0, 0.0) == 1.0
    assert bessel_product_series(1, 2, 0, 0.0) == 0.0


def test_product_series_matches_two_factor_product():
    for (n, m, alpha, r) in [(1, 1, 0.5, 1.3), (0, 3, 0.0, 2.2), (2, 4, 1.0, 0.9)]:
        direct = bessel_j(n + alpha, r) * bessel_j(m + alpha, r)
        assert bessel_product_series(n, m, alpha, r) == pytest.approx(
            direct, rel=1e-12, abs=1e-16
        )


def test_product_series_refuses_a_cancelled_sum():
    # with the x87 long double the sum of J_0^2 errs by 3e-8 at r = 18, and
    # eps times its largest term passes CANCEL_LIMIT between r = 18.3 and 18.4
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        for r in (18.0, 18.3):
            assert abs(bessel_product_series(0, 0, 0, r) - bessel_j(0, r) ** 2) < 1e-7
        for r in (18.4, 22.0, 30.0):
            with pytest.raises(ValueError, match=rf"J_0\({r:g}\) J_0\({r:g}\) is out of range"):
                bessel_product_series(0, 0, 0, r)
    # an array names its worst radius
    with pytest.raises(ValueError, match=r"J_1\(30\) J_2\(30\)"):
        bessel_product_series(1, 2, 0, np.array([1.0, 30.0, 25.0]))


def test_product_integral_examples():
    assert bessel_product_integral(0, 0, 0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert bessel_product_integral(2, 0, 0, 1.0) == pytest.approx(
        bessel_j(2, 1.0) * bessel_j(0, 1.0), abs=1e-12
    )
    assert bessel_product_integral(1, 1, 0.5, 0.7) == pytest.approx(
        bessel_j(1.5, 0.7) ** 2, abs=1e-12
    )


def test_product_consistency_small_grid():
    rs = np.linspace(0.4, 10.0, 9)
    for alpha in (0.0, 0.5, 1.0):
        for n in range(0, 5):
            for m in range(n, 5):
                series = bessel_product_series(n, m, alpha, rs)
                direct = bessel_j(n + alpha, rs) * bessel_j(m + alpha, rs)
                tol = 1e-10 * (1.0 + np.abs(direct))
                assert np.all(np.abs(series - direct) <= tol)


def test_small_r_leading_order():
    # bessel_product_series(n,m,alpha,r) / r^(n+m+2 alpha) tends to a finite
    # nonzero limit; the ratio must be stable across three decades
    for (n, m, alpha) in [(0, 0, 0.0), (1, 2, 0.5), (3, 1, 1.0)]:
        ratios = []
        for r in (1e-3, 1e-4, 1e-5):
            ratios.append(bessel_product_series(n, m, alpha, r) / r ** (n + m + 2 * alpha))
        assert ratios[0] != 0
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-5)
        assert ratios[2] == pytest.approx(ratios[1], rel=1e-6)


def test_product_recurrence_identity():
    # Exact four-term dependency of consecutive products, derived from the
    # recurrence J_{v-1} + J_{v+1} = (2v/r) J_v applied on both factors:
    #   (2+a) J_a J_{a+2} + (2+a) J_{a+2}^2 = (1+a) J_{a+1}^2 + (1+a) J_{a+1} J_{a+3}
    # It holds for every order shift and is a strong cross-check of the series.
    rs = np.linspace(0.1, 6.0, 13)
    for alpha in (0.0, 0.5, 1.0, 2.5):
        lhs = (2 + alpha) * (
            bessel_product_series(0, 2, alpha, rs) + bessel_product_series(2, 2, alpha, rs)
        )
        rhs = (1 + alpha) * (
            bessel_product_series(1, 1, alpha, rs) + bessel_product_series(1, 3, alpha, rs)
        )
        assert np.abs(lhs - rhs).max() < 1e-13


def test_gauss_legendre_exactness():
    x, w = gauss_legendre(0.0, 2.0, 8)
    # degree-15 exactness covers x^7 easily
    assert np.sum(w * x**7) == pytest.approx(2.0**8 / 8.0, rel=1e-13)
    x, w = gauss_legendre(-1.0, 1.0, 16, panels=4)
    assert np.sum(w * x**10) == pytest.approx(2.0 / 11.0, rel=1e-12)


def test_gauss_legendre_reads_the_cached_rule():
    for n in range(1, 13):
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(leggauss(n)[0], x) and np.array_equal(leggauss(n)[1], w)
        assert leggauss(n)[0] is leggauss(n)[0]
        # on [-1, 1] the affine map is the identity, bit for bit
        gx, gw = gauss_legendre(-1.0, 1.0, n)
        assert np.array_equal(gx, x) and np.array_equal(gw, w)
    with pytest.raises(ValueError):
        leggauss(3)[0][0] = 0.0


def test_gamma_accuracy_on_half_integers():
    # the series prefactors use math.gamma; half-integer values have the exact
    # closed form Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), so the platform
    # implementation can be certified to the 1e-13 relative level we rely on
    from fractions import Fraction

    for n in range(0, 20):
        exact = (
            Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
            * Fraction(math.sqrt(math.pi))
        )
        got = math.gamma(n + 0.5)
        assert abs(got / float(exact) - 1.0) < 1e-13
    for n in range(1, 25):
        assert math.gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-13)


def test_bessel_mp_matches_double():
    from mpmath import mp

    with mp.workdps(30):
        for nu in (0, 1.5, 3):
            for r in (0.2, 1.0, 5.5):
                assert float(bessel_j_mp(nu, r)) == pytest.approx(
                    bessel_j(nu, r), rel=1e-13
                )


def _reference_bessel_j_mp(nu, r):
    """The series of bessel_j_mp written with mpf operators, one rounding per
    operator; the libmp loop must reproduce it bit for bit."""
    nu_f = validate_order(nu)
    if nu_f < 0:
        n = int(-nu_f)
        return mpf(-1) ** n * _reference_bessel_j_mp(n, r)
    nu_m = mpf(2 * nu_f) / 2
    r = mpf(r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    half = r / 2
    if half == 0:
        return mpf(1) if nu_f == 0 else mpf(0)
    t = half**nu_m / mp.gamma(nu_m + 1)
    total = t
    h2 = half * half
    eps, tiny = mp.eps, mpf("1e-40")
    for k in range(1000):
        t = -t * h2 / ((k + 1) * (nu_m + k + 1))
        total += t
        if abs(t) <= eps * (abs(total) + tiny):
            return total
    raise ConvergenceError("mp series did not converge", partial=total, terms=1000)


_MP_ORDERS = [-3, 0] + [k / 2 for k in range(1, 16)] + [12]
_MP_RADII = [*radial_grid(48), *radial_grid(64), 0.0, 1e-30, 1.0, 6.0, 12.0, 30.0]


@pytest.mark.parametrize("dps", [15, 40, 50, 60])
def test_bessel_mp_bit_identical_to_operator_loop(dps):
    with mp.workdps(dps + 20):
        third = mpf(1) / 3  # an mpf radius finer than the working precision
    with mp.workdps(dps):
        for nu in _MP_ORDERS:
            got = [bessel_j_mp(nu, r)._mpf_ for r in _MP_RADII + [third]]
            want = [_reference_bessel_j_mp(nu, r)._mpf_ for r in _MP_RADII + [third]]
            assert got == want, f"order {nu}"


def test_bessel_mp_stops_at_the_operator_loops_term(monkeypatch):
    # the operator loop makes one `<=` (mpf_le) per term and the libmp loop
    # one mpf_mul, so equal counts mean both stop after the same term
    counts = {"libmp": 0, "operators": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(specfun, "mpf_mul", counting("libmp", specfun.mpf_mul))
    monkeypatch.setattr(ctx_mp_python, "mpf_le", counting("operators", ctx_mp_python.mpf_le))
    with mp.workdps(50):
        # at small r and high order the sum falls below the 1e-40 floor
        for nu in (0, 0.5, 3, 7.5, 12):
            for r in (1e-30, 1e-3, 0.3, 1.0, 6.0, 30.0):
                bessel_j_mp(nu, r)
                _reference_bessel_j_mp(nu, r)
                assert counts["libmp"] == counts["operators"], (nu, r)
    assert counts["libmp"] > 30 * 5


def test_bessel_mp_keeps_its_errors():
    with mp.workdps(50):
        with pytest.raises(ConvergenceError) as exc:
            bessel_j_mp(0, 3000)
        assert exc.value.terms == 1000
        assert isinstance(exc.value.partial, mpf)
        with pytest.raises(ValueError):
            bessel_j_mp(1, -0.5)
        with pytest.raises(ValueError):
            bessel_j_mp(-1.5, 1.0)
        assert bessel_j_mp(0, 0) == 1 and bessel_j_mp(2.5, mpf(0)) == 0


def test_mp_pipeline_bit_identical_to_operator_loop(monkeypatch):
    # 40-digit samples and both unmixing tables of a small d = 2 field, once
    # with bessel_j_mp and once with the operator loop in every module
    u = random_field(2, 3, fourier2d_basis(), seed=8)
    radii = radial_grid(24)

    def run():
        g = sample_magnitude(u, radii, 17, dps=40)
        tables = [
            extract_magnitude_data(g, 2, 3, method=method)[0].table.tobytes()
            for method in ("lstsq", "taylor")
        ]
        return [v._mpf_ for v in g.values.flat], tables

    got = run()
    for module in (specfun, field, extract):
        monkeypatch.setattr(module, "bessel_j_mp", _reference_bessel_j_mp)
    # empty the Bessel rows and designs of the first run, so that the second
    # evaluates every row with the operator loop
    for table in (field._mp_bessel_row, extract._lstsq_design, extract._taylor_design):
        table.cache_clear()
    assert run() == got


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_product_symmetry_and_bound(n, alpha, r):
    m = (n * 3 + 1) % 7
    a = bessel_product_series(n, m, alpha, r)
    b = bessel_product_series(m, n, alpha, r)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
    nu = n + alpha
    if nu == 0 or nu >= 0.5:
        assert abs(bessel_j(nu, r)) <= bessel_bound(nu, r) + 1e-14
