import math
import re
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_rational, mpf_div, round_nearest

from herglotz import extract, specfun
from herglotz.extract import (
    CONDITION_WARN,
    WORK_DPS,
    DegreeUnresolvableError,
    ExtractionRankError,
    NonZonalDataError,
    RadialProfile,
    angular_decompose,
    compatible_pairs,
    estimate_max_degree,
    extract_magnitude_data,
    radial_grid,
    radial_unmix,
    _gegenbauer_triples,
    _mp_columns,
    _mp_apply,
    _mp_factor,
)
from herglotz.field import (
    HerglotzField,
    MagnitudeData,
    MagnitudeGrid,
    magnitude_coeffs,
    random_field,
    sample_magnitude,
    trivially_equivalent,
)
from herglotz.harmonics import BasisSpec, SphereGrid, fourier2d_basis, sphere_grid
from herglotz.retrieve import retrieve_3d_mean, retrieve_real_data
from herglotz.specfun import bessel_j, gegenbauer

F2 = fourier2d_basis()
Z3 = BasisSpec("zonal", 3)


def _f2(coeff_map, M):
    u = HerglotzField.zero(2, M, F2)
    for k, c in coeff_map.items():
        u.coeffs[abs(k)][0 if k >= 0 else 1] = c
    return u


def test_radial_grid_properties():
    r = radial_grid(48)
    assert len(r) == 48
    assert np.all(np.diff(r) > 0)
    assert r[0] > 0.05 - 1e-12 and r[-1] <= 1.0


def test_angular_decompose_constant_data():
    radii = radial_grid(12)
    grid = sphere_grid(2, 8)
    vals = np.ones((12, 8)) * 3.5
    profiles = angular_decompose(MagnitudeGrid(2, radii, grid, vals), 2)
    assert np.allclose(profiles[0].values, 3.5)
    for p in profiles[1:]:
        assert np.abs(p.values).max() < 1e-13


def test_angular_decompose_single_mode_oracle():
    u = _f2({1: 1.0}, 1)
    radii = radial_grid(20)
    g = sample_magnitude(u, radii, 12)
    profiles = angular_decompose(g, 2)
    expected = 2 * math.pi * bessel_j(1, radii) ** 2
    assert np.abs(profiles[0].values - expected).max() < 1e-13
    for p in profiles[1:]:
        assert np.abs(p.values).max() < 1e-13


def test_angular_decompose_two_sided_mode():
    # u with u^(1) = u^(-1) = 1: |u|^2 has frequencies 0 and +-2 only
    u = _f2({1: 1.0, -1: 1.0}, 1)
    g = sample_magnitude(u, radial_grid(16), 12)
    profiles = angular_decompose(g, 2)
    active = {p.frequency for p in profiles if np.abs(p.values).max() > 1e-12}
    assert active == {0, 2}


def _twiddles(Q):
    with mp.workdps(WORK_DPS):
        return [[mp.expjpi(mpf(-2 * q * k) / Q) for k in range(Q)]
                for q in range((Q - 1) // 2 + 1)]


def _fdot_dft(rows, Q):
    """The mp DFT written with mp.fdot, one twiddle list per frequency."""
    with mp.workdps(WORK_DPS):
        return [[(mp.fdot(row, twiddle) / Q)._mpc_ for row in rows] for twiddle in _twiddles(Q)]


def _exact_dft(rows, Q):
    """The mp DFT as an exact Fraction sum of each row and the rounded twiddles,
    rounded once at the working precision and then divided by Q."""

    def exact(x):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    with mp.workdps(WORK_DPS):
        prec, q_mpf = mp.prec, from_int(Q)
        out = []
        for twiddle in _twiddles(Q):
            per_row = []
            for row in rows:
                parts = []
                for part in ("real", "imag"):
                    total = sum(exact(v) * exact(getattr(t, part)) for v, t in zip(row, twiddle))
                    rounded = from_rational(total.numerator, total.denominator, prec, round_nearest)
                    parts.append(mpf_div(rounded, q_mpf, prec, round_nearest))
                per_row.append(tuple(parts))
            out.append(per_row)
        return out


@pytest.mark.parametrize("Q", [17, 25, 40])
def test_mp_dft_is_exactly_rounded(Q, monkeypatch):
    rng = np.random.default_rng(Q)
    with mp.workdps(40):
        rows = [[3 * mpf(x) ** 2 for x in rng.standard_normal(Q)] for _ in range(6)]
    rows[1][::3] = [mpf(0)] * len(rows[1][::3])
    rows[2] = [mpf(0)] * Q
    # beside 40-digit O(1) values, 2^-150 keeps every product within 2 prec
    # = 338 bits of the others, where fdot's mpf_sum is exact; with 2^-400
    # the products span 441 bits and fdot drops terms, as it does in the
    # last row, where at q = 0 it lets 1 replace 2^-1000 and gives 0
    rows[3][5] = mpf(2) ** -150
    rows[4][5] = mpf(2) ** -400
    rows[5] = [mpf(2) ** -1000, mpf(1), mpf(-1)] + [mpf(0)] * (Q - 3)
    fdot_want = _fdot_dft(rows[:4], Q)
    exact_want = _exact_dft(rows[4:], Q)
    values = np.empty((len(rows), Q), dtype=object)
    values[:] = rows
    grid = MagnitudeGrid(2, radial_grid(len(rows)), sphere_grid(2, Q), values)
    fdots = []
    monkeypatch.setattr(mp, "fdot", lambda *args: fdots.append(1) or type(mp).fdot(mp, *args))
    got = [[v._mpc_ for v in p.values] for p in angular_decompose(grid, 2)]
    assert [q[:4] for q in got] == fdot_want
    assert [q[4:] for q in got] == exact_want
    with mp.workdps(WORK_DPS):
        assert mp.make_mpf(got[0][5][0]) == mpf(2) ** -1000 / Q
        per_q = extract._dft_twiddles(Q, mp.prec)
    assert not fdots
    assert any(0 in C for C, _, _ in per_q) == (Q % 4 == 0)  # exact zeros at Q = 40


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_mp_dft_refuses_non_finite_rows(bad):
    with mp.workdps(40):
        values = np.empty((2, 9), dtype=object)
        values[:] = [[mpf(k + 1) for k in range(9)] for _ in range(2)]
        values[1, 4] = mpf(bad)
    grid = MagnitudeGrid(2, radial_grid(2), sphere_grid(2, 9), values)
    with pytest.raises(ValueError, match="finite"):
        angular_decompose(grid, 2)


def test_angular_decompose_rejects_nonuniform():
    radii = radial_grid(6)
    ang = np.array([0.0, 0.3, 1.1, 2.0, 4.0, 5.5])
    grid = SphereGrid(
        2,
        np.stack([np.cos(ang), np.sin(ang)], axis=1),
        np.full(6, 2 * np.pi / 6),
        angles=ang,
    )
    with pytest.raises(ValueError, match="uniform"):
        angular_decompose(MagnitudeGrid(2, radii, grid, np.ones((6, 6))), 2)


def test_radial_unmix_zero_profile():
    radii = radial_grid(24)
    rep = radial_unmix(RadialProfile(2, 0, radii, np.zeros(24)), 3, 2)
    assert all(abs(v) < 1e-30 for v in rep.gamma.values())
    assert rep.residual < 1e-30


def test_radial_unmix_single_pair_oracle():
    radii = radial_grid(24)
    vals = 2 * math.pi * bessel_j(1, radii) ** 2
    rep = radial_unmix(RadialProfile(2, 0, radii, vals), 2, 2)
    assert rep.gamma[(1, 1)] == pytest.approx(1.0, abs=1e-8)
    assert abs(rep.gamma[(0, 0)]) < 1e-8
    assert abs(rep.gamma[(2, 2)]) < 1e-8


def test_radial_unmix_methods_agree():
    u = random_field(2, 4, F2, seed=3)
    g = sample_magnitude(u, radial_grid(48), 20, dps=40)
    for prof in angular_decompose(g, 2)[:5]:
        ra = radial_unmix(prof, 4, 2, method="lstsq")
        rb = radial_unmix(prof, 4, 2, method="taylor")
        for key in ra.gamma:
            assert rb.gamma[key] == pytest.approx(ra.gamma[key], abs=1e-8)


@pytest.mark.parametrize("M,q", [(6, 0), (6, 6), (8, 0), (8, 2)])
def test_qr_solve_error_against_120_digit_reference(M, q):
    # a Bessel-product system with known solution, rounded to the working
    # precision; the 120-digit solve of the rounded system shows the error the
    # rounding alone causes
    pairs = compatible_pairs(q, M, 2)
    rng = np.random.default_rng(M + q)
    with mp.workdps(120):
        cols = _mp_columns(pairs, radial_grid(64), 2)
        x = [mpf(v) for v in rng.standard_normal(len(pairs))]
        rhs = [mp.fdot(row, x) for row in zip(*cols)]
    with mp.workdps(WORK_DPS):
        cols = [[+v for v in col] for col in cols]
        rhs = [+v for v in rhs]
        f = _mp_factor(cols)
        (sol,), _ = _mp_apply(f, [rhs])
    with mp.workdps(120):
        ref, _ = mp.qr_solve(mp.matrix([list(row) for row in zip(*cols)]), mp.matrix(rhs))

        def error(y):
            return max(abs(y[j] - x[j]) for j in range(len(x))) / max(abs(v) for v in x)

        assert not f.deficient and 1e2 < f.cond < 1e10
        assert error(sol) <= 10 * error(ref)


def test_qr_solve_reports_zero_and_dependent_columns():
    with mp.workdps(WORK_DPS):
        a = [mpf(t + 1) for t in range(12)]
        b = [mpf((t - 5) ** 2) for t in range(12)]
        zero = [mpf(0)] * 12
        dependent = [ai + 2 * bi for ai, bi in zip(a, b)]
        rhs = [mpf(t % 3) for t in range(12)]
        f = _mp_factor([a, zero, b, dependent])
        (sol,), _ = _mp_apply(f, [rhs])
    assert f.deficient == (1, 3)
    assert f.cond == math.inf
    assert sol[1] == 0 and sol[3] == 0


def test_qr_solve_doubles_with_its_right_hand_side():
    rng = np.random.default_rng(4)
    with mp.workdps(WORK_DPS):
        cols = _mp_columns(compatible_pairs(2, 6, 2), radial_grid(40), 2)
        rhs = [mpf(v) for v in rng.standard_normal(40)]
        (sol, sol2), (res, res2) = _mp_apply(_mp_factor(cols), [rhs, [2 * v for v in rhs]])
        assert all(b == 2 * a for a, b in zip(sol, sol2))
    assert res2 == 2 * res


def test_radial_unmix_needs_enough_nodes():
    radii = radial_grid(3)
    with pytest.raises(ValueError, match="radial nodes"):
        radial_unmix(RadialProfile(2, 0, radii, np.zeros(3)), 6, 2)


def test_scaling_equivariance():
    u = random_field(2, 3, F2, seed=2)
    g = sample_magnitude(u, radial_grid(32), 16)
    d1, _ = extract_magnitude_data(g, 2, 3)
    # doubling is exact in binary floating point
    g2 = MagnitudeGrid(2, g.radii, g.grid, 2.0 * g.values)
    d2, _ = extract_magnitude_data(g2, 2, 3)
    for (m, n) in d1.pairs():
        for q, c in d1.pair_fourier(m, n).items():
            assert d2.pair_fourier(m, n)[q] == 2.0 * c
    # generic scale: the input rounding of 3.7 * v is amplified by the solve's
    # conditioning, so only near-exactness can be asked for
    g3 = MagnitudeGrid(2, g.radii, g.grid, 3.7 * g.values)
    d3, _ = extract_magnitude_data(g3, 2, 3)
    for (m, n) in d1.pairs():
        for q, c in d1.pair_fourier(m, n).items():
            assert d3.pair_fourier(m, n)[q] == pytest.approx(3.7 * c, abs=1e-10)


def test_identifiability_d2_designs():
    # full column rank of every frequency-class design on 2x(pair count)
    # Chebyshev nodes up to M = 8; the classes are independent in exact
    # arithmetic and the arbitrary-precision factorization resolves them
    M = 8
    for q in range(0, 2 * M + 1):
        pairs = compatible_pairs(q, M, 2)
        if not pairs:
            continue
        radii = radial_grid(2 * len(pairs))
        prof = RadialProfile(2, q, radii, np.zeros(len(radii)))
        rep = radial_unmix(prof, M, 2)  # raises ExtractionRankError if deficient
        assert set(rep.gamma) == set(pairs)


def test_antisymmetric_phantom_synthesizes_to_zero():
    rng = np.random.default_rng(5)
    rs = np.linspace(1e-3, 1.0, 50)
    M = 8
    for alpha in (0.0, 0.5, 1.0):
        c = rng.standard_normal((M + 1, M + 1)) + 1j * rng.standard_normal((M + 1, M + 1))
        c = c - c.T  # antisymmetric: c[n, m] = -c[m, n]
        js = {n: bessel_j(n + alpha, rs) for n in range(M + 1)}
        total = np.zeros(len(rs), dtype=complex)
        for n in range(M + 1):
            for m in range(M + 1):
                total += c[n, m] * js[n] * js[m]
        assert np.abs(total).max() < 1e-10


def test_extract_roundtrip_d2():
    u = random_field(2, 4, F2, seed=9)
    g = sample_magnitude(u, radial_grid(48), 24, dps=40)
    data, reports = extract_magnitude_data(g, 2, 4)
    truth = magnitude_coeffs(u, data.grid)
    assert truth.deviation(data) < 1e-6 * (1 + truth.max_abs())
    assert max(r.residual for r in reports) < 1e-10


def test_extract_zero_grid():
    grid = sample_magnitude(HerglotzField.zero(2, 2, F2), radial_grid(16), 12)
    data, _ = extract_magnitude_data(grid, 2, 2)
    assert data.max_abs() < 1e-14


def test_truncation_mismatch_reports_residual():
    # data generated at degree 4 but extracted at degree 3: the unexplained
    # content must show up in the reports, not vanish silently
    u = random_field(2, 4, F2, seed=10)
    g = sample_magnitude(u, radial_grid(48), 24)
    _, reports = extract_magnitude_data(g, 2, 3)
    scale = 1 + float(np.max(np.abs(g.values)))
    assert max(r.residual for r in reports) > 1e-6 * scale
    # a correctly sized extraction of the same data is orders quieter
    _, clean = extract_magnitude_data(g, 2, 4)
    assert max(r.residual for r in clean) < 1e-9 * scale


def test_estimate_max_degree():
    u = random_field(2, 4, F2, seed=11)
    g = sample_magnitude(u, radial_grid(48), 24)
    assert estimate_max_degree(g, 2) == 4
    uz = random_field(3, 3, Z3, seed=12, zonal=True)
    gz = sample_magnitude(uz, radial_grid(40), 10)
    assert estimate_max_degree(gz, 3) == 3


def test_extract_d3_zonal_roundtrip():
    u = random_field(3, 3, Z3, seed=13, zonal=True)
    g = sample_magnitude(u, radial_grid(40), 10)
    data, reports = extract_magnitude_data(g, 3, 3)
    truth = magnitude_coeffs(u, data.grid)
    assert truth.deviation(data) < 1e-6 * (1 + truth.max_abs())


@pytest.mark.parametrize("method", ["taylor", "bogus"])
def test_extract_d3_rejects_a_method(method):
    # d = 3 data take the joint solve; a method for d = 2 profiles is refused
    u = random_field(3, 3, Z3, seed=13, zonal=True)
    g = sample_magnitude(u, radial_grid(40), 10)
    with pytest.raises(ValueError, match="joint"):
        extract_magnitude_data(g, 3, 3, method=method)


def test_extract_d3_rejects_nonzonal():
    u = random_field(3, 3, Z3, seed=14, sparse=True)  # sparse but not zonal
    g = sample_magnitude(u, radial_grid(24), 10)
    with pytest.raises(ValueError, match="zonal"):
        extract_magnitude_data(g, 3, 3)


Z4 = BasisSpec("zonal", 4)


@pytest.mark.parametrize("family", ["generic", "real", "zero_mean"])
def test_extract_d4_zonal_roundtrip(family):
    # 48 radii and resolution 2M + 4, the sample command's defaults: the worst
    # of these 12 fields per family deviates by 1.7e-9 of the data scale
    flags = {} if family == "generic" else {family: True}
    for M in range(1, 5):
        for seed in range(3):
            u = random_field(4, M, Z4, seed, zonal=True, **flags)
            g = sample_magnitude(u, radial_grid(48), 2 * M + 4)
            assert estimate_max_degree(g, 4) == M, (M, seed)
            data, reports = extract_magnitude_data(g, 4, M)
            assert reports[0].frequency == -1 and reports[0].method == "joint-float64"
            truth = magnitude_coeffs(u, data.grid)
            assert truth.deviation(data) <= 1e-8 * (1 + truth.max_abs()), (M, seed)
            if family == "zero_mean":
                continue  # no mean to anchor the mean branch
            # the mean branch takes square roots of a real field's data, so
            # the real family goes through its own branch
            solve = retrieve_3d_mean if family == "generic" else retrieve_real_data
            te = trivially_equivalent(u, solve(data, Z4).field, tol=1e-6)
            assert te.equivalent, (M, seed, te.residual)


def test_extract_d4_rejects_nonzonal():
    u = random_field(4, 2, Z4, seed=3)
    g = sample_magnitude(u, radial_grid(12), 8)
    with pytest.raises(NonZonalDataError, match="d=4 samples are not zonal: azimuthal spread"):
        extract_magnitude_data(g, 4, 2)


def test_gegenbauer_triples_follow_the_selection_rule():
    # U_m U_n = sum of U_k over k = |m - n|, |m - n| + 2, ..., m + n: every
    # d = 4 linearization coefficient is 1 where compatible_pairs allows it, else 0
    M = 4
    beta = _gegenbauer_triples(M, 4)
    for q in range(2 * M + 1):
        feeds = compatible_pairs(q, M, 4)
        for m in range(M + 1):
            for n in range(M + 1):
                allowed = (min(m, n), max(m, n)) in feeds
                assert beta[m, n, q] == pytest.approx(float(allowed), abs=1e-13)


def test_extract_rejects_a_negative_degree():
    u = random_field(3, 2, Z3, seed=1, zonal=True)
    g = sample_magnitude(u, radial_grid(12), 8)
    with pytest.raises(ValueError, match="max_degree must be >= 0, got -1"):
        extract_magnitude_data(g, 3, -1)


def test_d3_single_component_collision():
    # Within one Gegenbauer component the Bessel-product dictionary contains an
    # exactly dependent quadruple (four-term recurrence identity), so unmixing
    # a single component must fail loudly, naming the colliding pairs.
    u = random_field(3, 3, Z3, seed=6, zonal=True)
    g = sample_magnitude(u, radial_grid(40), 10)
    prof = [p for p in angular_decompose(g, 3) if p.frequency == 2][0]
    with pytest.raises(ExtractionRankError) as exc:
        radial_unmix(prof, 3, 3)
    assert (2, 2) in exc.value.pairs


def test_compatible_pairs_rules():
    assert compatible_pairs(3, 4, 2) == [(0, 3), (1, 2), (1, 4)]
    assert (1, 1) in compatible_pairs(2, 3, 3)
    assert (2, 2) in compatible_pairs(2, 3, 3)
    assert (0, 3) not in compatible_pairs(2, 3, 3)


# Worst |gamma_float64 - gamma_lstsq| / max|samples| over 20 fields per M (five
# families x four seeds, 48 radii, 4M + 5 angles) was 9.4e-13, 9.6e-11 and
# 6.9e-8 at M = 3, 4, 5, and float64 residuals were 0.54 to 2.7 times the
# lstsq ones; the bounds leave about a factor of ten.
FLOAT64_GAMMA_TOL = {3: 1e-11, 4: 1e-9, 5: 1e-6}


@pytest.mark.parametrize("M", [3, 4, 5])
@pytest.mark.parametrize("family", [{}, {"real": True}, {"all_r": True}])
def test_float64_unmix_agrees_with_lstsq(M, family):
    u = random_field(2, M, F2, seed=20 + M, **family)
    g = sample_magnitude(u, radial_grid(48), 4 * M + 5)
    scale = float(np.abs(g.values).max())
    for prof in angular_decompose(g, 2):
        a = radial_unmix(prof, M, 2, method="float64")
        b = radial_unmix(prof, M, 2, method="lstsq")
        if not b.gamma:
            continue
        assert a.method == "float64" and not a.warnings
        assert max(abs(a.gamma[k] - b.gamma[k]) for k in b.gamma) < FLOAT64_GAMMA_TOL[M] * scale
        assert b.residual / 4 < a.residual < 4 * b.residual


def test_float64_unmix_raises_on_ill_conditioned_profiles(monkeypatch):
    # 16 radii cannot condition M = 8: a profile whose condition exceeds
    # CONDITION_WARN raises from the double solve, naming its weak pairs,
    # and no arbitrary-precision Bessel value is computed for it
    u = random_field(2, 8, F2, seed=21)
    g = sample_magnitude(u, radial_grid(16), 37)
    profiles = angular_decompose(g, 2)[:9]
    conditions = [radial_unmix(prof, 8, 2, method="lstsq").condition for prof in profiles]
    calls = []
    original = extract.bessel_j_mp
    monkeypatch.setattr(extract, "bessel_j_mp", lambda *a: calls.append(a) or original(*a))
    for prof, cond in zip(profiles, conditions):
        if cond > CONDITION_WARN:
            with pytest.raises(ExtractionRankError) as exc:
                radial_unmix(prof, 8, 2, method="float64")
            assert exc.value.condition > CONDITION_WARN
            assert exc.value.pairs
        else:
            assert radial_unmix(prof, 8, 2, method="float64").method == "float64"
    assert calls == []
    assert any(cond > CONDITION_WARN for cond in conditions)


@pytest.mark.parametrize("family", ["generic", "real", "sparse", "zero_mean", "all_r"])
def test_estimate_max_degree_matches_the_50_digit_estimate(family):
    # seed 1000 M of every family, on the sample command's default grid (48
    # radii, 4M + 5 angles) and on 32 radii with 4M + 3 angles: the estimate
    # whose candidate unmixings ran at 50 digits gave M in each case
    flags = {} if family == "generic" else {family: True}
    for radial, extra in ((48, 5), (32, 3)):
        for M in range(1, 7):
            u = random_field(2, M, F2, 1000 * M, **flags)
            g = sample_magnitude(u, radial_grid(radial), 4 * M + extra)
            assert estimate_max_degree(g, 2) == M, (radial, M)


def test_estimate_max_degree_high_precision_samples():
    # dps = 40 samples reach the float64 solve rounded to double, so they
    # estimate the same degree as their double copy
    for M, seed in ((3, 30), (5, 31)):
        u = random_field(2, M, F2, seed)
        g = sample_magnitude(u, radial_grid(48), 4 * M + 5, dps=40)
        copy = MagnitudeGrid(2, g.radii, g.grid, np.asarray(g.values, dtype=float))
        assert estimate_max_degree(g, 2) == estimate_max_degree(copy, 2) == M


def test_default_extraction_of_double_grids_runs_in_float64(monkeypatch):
    # double samples on the sample command's default grid: every d = 2 profile
    # is unmixed in double precision, and no arbitrary-precision Bessel value
    # is computed, neither by the degree estimate nor by the extraction
    calls = []
    original = extract.bessel_j_mp
    monkeypatch.setattr(extract, "bessel_j_mp", lambda *a: calls.append(a) or original(*a))
    for M in range(1, 7):
        u = random_field(2, M, F2, seed=40 + M)
        g = sample_magnitude(u, radial_grid(48), 4 * M + 5)
        data, reports = extract_magnitude_data(g, 2)
        assert data.max_degree == M
        assert {rep.method for rep in reports} == {"float64"}
    assert calls == []


DESIGN_TABLES = {"float64": "_float64_design", "lstsq": "_lstsq_design", "taylor": "_taylor_design"}


def _count_design_work(monkeypatch):
    """Count bessel_j_mp calls and factorizations made through extract."""
    counts = {"bessel_j_mp": 0, "_mp_factor": 0, "_f64_factor": 0}
    for name in counts:
        original = getattr(extract, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(extract, name, counted)
    return counts


@pytest.mark.parametrize("method", ["float64", "lstsq", "taylor"])
def test_warm_extraction_matches_a_cold_one(method, monkeypatch):
    # a design's factorization depends on (pairs, radii, d, precision) only, so
    # a second extraction of the grid reads every factorization from its table
    u = random_field(2, 3, F2, seed=45)
    grid = sample_magnitude(u, radial_grid(24), 17, dps=None if method == "float64" else 40)
    counts = _count_design_work(monkeypatch)
    cold, cold_reports = extract_magnitude_data(grid, 2, 3, method=method)
    assert counts["_mp_factor" if method != "float64" else "_f64_factor"] > 0
    assert (counts["bessel_j_mp"] > 0) == (method == "lstsq")
    counts.update(dict.fromkeys(counts, 0))
    warm, warm_reports = extract_magnitude_data(grid, 2, 3, method=method)
    assert counts == {"bessel_j_mp": 0, "_mp_factor": 0, "_f64_factor": 0}
    assert np.array_equal(warm.table, cold.table)
    # gamma, residual, condition, method and warnings
    assert warm_reports == cold_reports
    table = getattr(extract, DESIGN_TABLES[method]).cache_info()
    assert table.currsize == table.misses == 7 and table.hits == 7


@pytest.mark.parametrize("method", ["float64", "lstsq", "taylor"])
def test_design_tables_key_on_radii_dimension_and_precision(method, monkeypatch):
    # q = 0, M = 1 has the pairs (0, 0) and (1, 1) in d = 2 and in d = 3
    table = getattr(extract, DESIGN_TABLES[method])
    radii = radial_grid(12)
    values = np.linspace(1.0, 2.0, 12)
    radial_unmix(RadialProfile(2, 0, radii, values), 1, 2, method)
    # the same radii in another array, with other samples, read the same entry
    radial_unmix(RadialProfile(2, 0, radii.copy(), 2 * values), 1, 2, method)
    assert (table.cache_info().misses, table.cache_info().hits) == (1, 1)
    radial_unmix(RadialProfile(2, 0, radii * 1.01, values), 1, 2, method)
    radial_unmix(RadialProfile(3, 0, radii, values), 1, 3, method)
    assert table.cache_info().misses == 3
    monkeypatch.setattr(extract, "WORK_DPS", 60)
    radial_unmix(RadialProfile(2, 0, radii, values), 1, 2, method)
    # float64 designs do not depend on the precision of the mp solves
    info = table.cache_info()
    assert (info.misses, info.hits) == ((3, 2) if method == "float64" else (4, 1))


def _frozen(x):
    return isinstance(x, (int, float)) or isinstance(x, tuple) and all(map(_frozen, x))


def test_tabled_factors_refuse_writes():
    radii = radial_grid(12)
    pairs = ((0, 0), (1, 1))
    factors, cond = extract._float64_design(pairs, radii.tobytes(), 2)
    assert len(factors) == 4 and cond > 1
    for a in factors:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0
    with mp.workdps(WORK_DPS):
        designs = [extract._lstsq_design(pairs, radii.tobytes(), 2, mp.prec),
                   *extract._taylor_design(pairs, radii.tobytes(), 2, mp.prec)]
    # integers held in tuples, and the condition estimate
    assert all(_frozen(f) for f in designs)
    with pytest.raises(AttributeError):
        designs[0].cond = 1.0


@pytest.mark.parametrize("method", ["float64", "lstsq", "taylor"])
def test_refused_designs_raise_the_same_error_on_each_repeat(method):
    # the exactly dependent d = 3 quadruple of test_d3_single_component_collision
    u = random_field(3, 3, Z3, seed=6, zonal=True)
    g = sample_magnitude(u, radial_grid(40), 10)
    prof = [p for p in angular_decompose(g, 3) if p.frequency == 2][0]
    errors = []
    for _ in range(3):
        with pytest.raises(ExtractionRankError) as exc:
            radial_unmix(prof, 3, 3, method)
        errors.append((exc.value.pairs, exc.value.condition))
    assert errors[0][0] and errors == errors[:1] * 3
    assert (errors[0][1] is None) == (method != "float64")
    # a refused design is not tabled
    assert getattr(extract, DESIGN_TABLES[method]).cache_info().currsize == 0


@pytest.mark.parametrize("method", ["float64", "lstsq", "taylor"])
def test_design_tables_keep_their_bound(method):
    radii = radial_grid(6)
    for k in range(extract._DESIGN_TABLE_SIZE + 5):
        radial_unmix(RadialProfile(2, 0, radii * (1 + k / 1000), np.ones(6)), 1, 2, method)
    table = getattr(extract, DESIGN_TABLES[method]).cache_info()
    assert table.currsize == extract._DESIGN_TABLE_SIZE


def test_extraction_evaluates_each_bessel_row_once(monkeypatch):
    # the degree estimate unmixes all 13 profiles at each candidate degree and
    # the extraction once more, but each order's row on the radii is evaluated
    # once, and sampling on the same radii reads the same rows
    u = random_field(2, 5, F2, 500)
    radii = radial_grid(48)
    grid = sample_magnitude(u, radii, 25)
    specfun._bessel_row.cache_clear()
    calls = []
    monkeypatch.setattr(specfun, "bessel_j", lambda nu, r: calls.append(nu) or bessel_j(nu, r))
    data, _ = extract_magnitude_data(grid, 2)
    assert data.max_degree == 5
    assert calls == [0, 1, 2, 3, 4, 5]
    again = sample_magnitude(u, radii, 25)
    assert np.array_equal(again.values, grid.values) and len(calls) == 6


def test_angular_decompose_transforms_each_grid_once(monkeypatch):
    # the lstsq and taylor extractions of one 40-digit grid share its profiles
    calls = []
    original = extract._mp_dft
    monkeypatch.setattr(extract, "_mp_dft", lambda *a: calls.append(1) or original(*a))
    u = random_field(2, 6, F2, seed=46)
    grid = sample_magnitude(u, radial_grid(64), 40, dps=40)
    first = angular_decompose(grid, 2)
    second = angular_decompose(grid, 2)
    assert len(calls) == 64
    assert first is not second and len(first) == len(second) == 20
    for p, q in zip(first, second):
        assert p.frequency == q.frequency and [v._mpc_ for v in p.values] == [
            v._mpc_ for v in q.values
        ]
        with pytest.raises(ValueError, match="read-only"):
            p.values[0] = p.values[1]
    first.pop()
    assert len(angular_decompose(grid, 2)) == 20
    for method in ("lstsq", "taylor"):
        extract_magnitude_data(grid, 2, 6, method=method)
    assert len(calls) == 64
    # keyed on the grid object: a copy with equal values runs its own transform
    copy = MagnitudeGrid(2, grid.radii, grid.grid, grid.values)
    again = angular_decompose(copy, 2)
    assert len(calls) == 128
    assert [[v._mpc_ for v in p.values] for p in again] == [
        [v._mpc_ for v in p.values] for p in second
    ]


@pytest.mark.parametrize("dim", [2, 3])
def test_angular_decompose_of_double_grids_is_kept_per_grid(dim, monkeypatch):
    if dim == 2:
        grid = sample_magnitude(random_field(2, 3, F2, seed=47), radial_grid(24), 17)
    else:
        u = random_field(3, 2, Z3, seed=47, zonal=True)
        grid = sample_magnitude(u, radial_grid(16), 8)
    first = angular_decompose(grid, dim)
    # the dimension is checked before the profiles are looked up
    with pytest.raises(ValueError, match="dimension mismatch"):
        angular_decompose(grid, 5 - dim)
    monkeypatch.setattr(extract, "_decompose", None)
    second = angular_decompose(grid, dim)
    assert first == second and first is not second
    for p in second:
        with pytest.raises(ValueError, match="read-only"):
            p.values[0] = 0.0


def test_default_extraction_of_mp_grids_stays_at_50_digits():
    u = random_field(2, 3, F2, seed=44)
    g = sample_magnitude(u, radial_grid(32), 17, dps=40)
    _, reports = extract_magnitude_data(g, 2, 3)
    assert {rep.method for rep in reports} == {"lstsq"}


@pytest.mark.parametrize("family", ["generic", "all_r", "zero_mean"])
def test_float64_extraction_is_as_accurate_as_50_digits_d2(family):
    # over 12 seeds per family and M, the float64 deviation was at most 2.4
    # times the 50-digit one (median 0.4 to 1.0)
    flags = {} if family == "generic" else {family: True}
    for M in (3, 4, 5):
        for seed in (40 + 10 * M, 41 + 10 * M):
            u = random_field(2, M, F2, seed, **flags)
            g = sample_magnitude(u, radial_grid(48), 4 * M + 5)
            fast, _ = extract_magnitude_data(g, 2, M)
            slow, _ = extract_magnitude_data(g, 2, M, method="lstsq")
            truth = magnitude_coeffs(u, fast.grid)
            assert truth.deviation(fast) <= 3 * truth.deviation(slow), (M, seed)


def _mp_joint_data(g, M):
    """The d = 3 joint least squares over the Gegenbauer components at 50
    digits, from the arbitrary-precision Bessel columns."""
    pairs = [(m, n) for m in range(M + 1) for n in range(m, M + 1)]
    profiles = [p for p in angular_decompose(g, 3) if p.frequency <= 2 * M]
    beta = _gegenbauer_triples(M, 3)
    with mp.workdps(WORK_DPS):
        base = _mp_columns(pairs, g.radii, 3)
        cols = [
            [mpf((1 if m == n else 2) * beta[m, n, p.frequency]) * v for p in profiles for v in col]
            for (m, n), col in zip(pairs, base)
        ]
        rhs = [mpf(float(v)) for p in profiles for v in p.values]
        f = _mp_factor(cols)
        (sol,), _ = _mp_apply(f, [rhs])
    assert not f.deficient
    gamma = np.zeros((M + 1, M + 1))
    for (m, n), v in zip(pairs, sol):
        gamma[m, n] = float(v)
    legendre = np.array([gegenbauer(m, 0.5, g.grid.polar_t) for m in range(M + 1)])
    table = gamma[:, :, None] * legendre[:, None, :] * legendre[None, :, :]
    return np.repeat(table, g.grid.azimuth_count, axis=2)


@pytest.mark.parametrize("M", [4, 5, 6])
def test_float64_extraction_is_as_accurate_as_50_digits_d3(M):
    # over 20 seeds per M the two solves' data digits agreed within 0.01
    for seed in (50 + M, 60 + M):
        u = random_field(3, M, Z3, seed=seed, zonal=True)
        g = sample_magnitude(u, radial_grid(48), 2 * M + 4)
        fast, reports = extract_magnitude_data(g, 3, M)
        assert reports[0].method == "joint-float64"
        truth = magnitude_coeffs(u, fast.grid)
        slow = MagnitudeData(3, fast.grid, _mp_joint_data(g, M))
        assert truth.deviation(fast) <= 3 * truth.deviation(slow), seed


@pytest.mark.parametrize("radii", [
    radial_grid(2),  # 2 radii x 13 components cannot determine 28 pairs
    np.array([0.5, 0.5 + 1e-6, 0.5 + 2e-6]),  # nearly coincident rows
])
def test_d3_joint_rank_loss_names_the_pairs(radii):
    u = random_field(3, 6, Z3, seed=1, zonal=True)
    g = sample_magnitude(u, radii, 16)
    with pytest.raises(ExtractionRankError) as exc:
        extract_magnitude_data(g, 3, 6)
    assert exc.value.condition > CONDITION_WARN
    assert exc.value.pairs and all(0 <= m <= n <= 6 for m, n in exc.value.pairs)


def test_truncated_degree_estimate_raises():
    # a degree-7 field on 48 radii: degree 6 fits at thousands of times the
    # rounding budget, and degree 7's design loses rank
    u = random_field(2, 7, F2, seed=7000)
    g = sample_magnitude(u, radial_grid(48), 33)
    with pytest.raises(DegreeUnresolvableError, match="degree 7 unresolvable"):
        estimate_max_degree(g, 2)


_SWEEP_FAMILIES = ({}, {"real": True}, {"zero_mean": True}, {"all_r": True}, {"sparse": True})


def test_d2_degree_sweep_is_right_or_refused():
    # 720 fields: M = 1-8, five families, seeds 0-5, on three grids. 21 sparse
    # fields among them keep their top degree out of the profiles above twice
    # the degree below it, so only the fit can tell; each estimate must be M
    # or a refusal
    for radial, extra in ((48, 5), (32, 3), (64, 9)):
        radii = radial_grid(radial)
        for M in range(1, 9):
            for flags in _SWEEP_FAMILIES:
                for seed in range(6):
                    g = sample_magnitude(random_field(2, M, F2, seed, **flags), radii,
                                         4 * M + extra)
                    try:
                        est = estimate_max_degree(g, 2)
                    except DegreeUnresolvableError:
                        continue
                    assert est == M, (radial, M, flags, seed, est)


def test_sparse_degree_5_is_not_truncated():
    # its profiles above frequency 8 hold nothing; only the degree-4 fit, 1.3e7
    # times the rounding level, shows degree 5
    u = random_field(2, 5, F2, seed=2, sparse=True)
    g = sample_magnitude(u, radial_grid(48), 25)
    assert estimate_max_degree(g, 2) == 5
    data, _ = extract_magnitude_data(g, 2)
    assert data.max_degree == 5
    assert magnitude_coeffs(u, data.grid).deviation(data) < 1e-6


@pytest.mark.parametrize("flags, message", [
    # degree 6 fits at 25 times the budget, and degree 7 loses rank on 48 radii
    ({"sparse": True}, r"degree 7 unresolvable: the estimate is 6, whose fit is 25\.4 times "
                       r"the rounding budget .*condition estimate 1\.38e\+12"),
    # the first candidate, 7, loses rank: refused by the estimate, not by the
    # extraction after it
    ({"all_r": True}, r"degree 7 unresolvable: rank-deficient unmixing system "
                      r"\(condition estimate 1\.38e\+12\)"),
], ids=["sparse", "all_r"])
def test_unresolvable_degree_7_is_refused(flags, message):
    u = random_field(2, 7, F2, seed=3 if flags.get("sparse") else 2, **flags)
    g = sample_magnitude(u, radial_grid(48), 33)
    with pytest.raises(DegreeUnresolvableError, match=message):
        estimate_max_degree(g, 2)
    with pytest.raises(DegreeUnresolvableError, match=message):
        extract_magnitude_data(g, 2)


def test_noise_above_rounding_is_refused_with_both_misfits():
    # 1e-12 of noise: degree 3 misfits, and degree 4 gains less than tenfold
    u = random_field(2, 3, F2, seed=0)
    g = sample_magnitude(u, radial_grid(48), 17)
    noise = 1e-12 * np.random.default_rng(0).standard_normal(g.values.shape)
    noisy = MagnitudeGrid(2, g.radii, g.grid, g.values + noise)
    with pytest.raises(DegreeUnresolvableError) as exc:
        estimate_max_degree(noisy, 2)
    found = re.fullmatch(
        r"degree 4 unresolvable: the estimate is 3, whose fit is (\S+) times the rounding "
        r"budget (\S+); its own fit is (\S+) times the budget, less than a tenfold gain",
        str(exc.value))
    first, budget, second = map(float, found.groups())
    assert first > 1 and second > first / 10
    assert budget == pytest.approx(extract.FIT_BUDGET * np.finfo(float).eps
                                   * (1 + np.abs(g.values).max()) * math.sqrt(48 / 17))


def test_a_write_to_the_callers_radii_leaves_the_grid_unchanged():
    # the grid and its profiles keep their own read-only radii
    radii = radial_grid(24)
    g = sample_magnitude(random_field(2, 3, F2, seed=1), radii, 17)
    first, _ = extract_magnitude_data(g, 2, 3)
    radii[:] = radii[::-1]
    second, reports = extract_magnitude_data(g, 2, 3)
    assert np.all(np.diff(g.radii) > 0) and not g.radii.flags.writeable
    assert all(not p.radii.flags.writeable for p in angular_decompose(g, 2))
    assert max(rep.residual for rep in reports) < 1e-12
    assert first.deviation(second) == 0.0


@pytest.mark.parametrize("family", [{}, {"zero_mean": True}, {"real": True}])
def test_estimate_max_degree_d3_zonal(family):
    # on the sample command's default grid (48 radii, 2M + 4 polar nodes) the
    # components above 2M of a correct estimate stay below TRUNCATION_FLOOR
    for M in range(1, 6):
        u = random_field(3, M, Z3, seed=70 + M, zonal=True, **family)
        g = sample_magnitude(u, radial_grid(48), 2 * M + 4)
        assert estimate_max_degree(g, 3) == M


def test_truncated_degree_estimate_raises_d3():
    # a zonal degree-7 field on 48 radii: its top components fall below the
    # activity threshold, but not below the rounding floor
    u = random_field(3, 7, Z3, seed=70, zonal=True)
    g = sample_magnitude(u, radial_grid(48), 18)
    with pytest.raises(DegreeUnresolvableError, match="degree 6 unresolvable: the estimate is 5"):
        estimate_max_degree(g, 3)


def test_radial_profile_refuses_values_that_do_not_match_its_radii():
    # with its last 3 values cut, this q = 2 profile once unmixed to
    # gamma(0, 2) = 246.7 - 1372.9i by lstsq (0.278 + 0.471i in full), taylor
    # read its inner radii alone, and float64 failed inside numpy
    g = sample_magnitude(random_field(2, 3, F2, seed=1), radial_grid(32), 17)
    p = angular_decompose(g, 2)[2]
    for values, shape in ((p.values[:-3], "(29,)"), (p.values[None], "(1, 32)")):
        msg = f"values have shape {shape}; 32 radii need (32,)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            RadialProfile(2, 2, p.radii, values)


@pytest.mark.parametrize("method", ["lstsq", "taylor", "float64"])
def test_radial_unmix_refuses_a_dimension_other_than_the_profiles(method):
    # unmixed with d = 3, the q = 0 profile of a d = 2 grid once gave a report
    # built on d = 3 pairs and half-integer Bessel orders
    g = sample_magnitude(random_field(2, 3, F2, seed=1), radial_grid(32), 17)
    with pytest.raises(ValueError, match="profile is for d = 2, got d = 3"):
        radial_unmix(angular_decompose(g, 2)[0], 3, 3, method)
