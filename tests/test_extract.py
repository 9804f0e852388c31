import math

import numpy as np
import pytest
from mpmath import mp, mpf

from herglotz import extract
from herglotz.extract import (
    CONDITION_WARN,
    WORK_DPS,
    DegreeUnresolvableError,
    ExtractionRankError,
    RadialProfile,
    angular_decompose,
    compatible_pairs,
    estimate_max_degree,
    extract_magnitude_data,
    radial_grid,
    radial_unmix,
    _legendre_triples,
    _mp_columns,
    _mp_qr_solve,
)
from herglotz.field import (
    HerglotzField,
    MagnitudeData,
    MagnitudeGrid,
    magnitude_coeffs,
    random_field,
    sample_magnitude,
)
from herglotz.harmonics import BasisSpec, SphereGrid, fourier2d_basis, sphere_grid
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
        sol, cond, _, deficient = _mp_qr_solve(cols, rhs)
    with mp.workdps(120):
        ref, _ = mp.qr_solve(mp.matrix([list(row) for row in zip(*cols)]), mp.matrix(rhs))

        def error(y):
            return max(abs(y[j] - x[j]) for j in range(len(x))) / max(abs(v) for v in x)

        assert not deficient and 1e2 < cond < 1e10
        assert error(sol) <= 10 * error(ref)


def test_qr_solve_reports_zero_and_dependent_columns():
    with mp.workdps(WORK_DPS):
        a = [mpf(t + 1) for t in range(12)]
        b = [mpf((t - 5) ** 2) for t in range(12)]
        zero = [mpf(0)] * 12
        dependent = [ai + 2 * bi for ai, bi in zip(a, b)]
        rhs = [mpf(t % 3) for t in range(12)]
        sol, cond, _, deficient = _mp_qr_solve([a, zero, b, dependent], rhs)
    assert deficient == [1, 3]
    assert cond == math.inf
    assert sol[1] == 0 and sol[3] == 0


def test_qr_solve_doubles_with_its_right_hand_side():
    rng = np.random.default_rng(4)
    with mp.workdps(WORK_DPS):
        cols = _mp_columns(compatible_pairs(2, 6, 2), radial_grid(40), 2)
        rhs = [mpf(v) for v in rng.standard_normal(40)]
        sol, _, res, _ = _mp_qr_solve(cols, rhs)
        sol2, _, res2, _ = _mp_qr_solve(cols, [2 * v for v in rhs])
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


def test_extract_d3_rejects_nonzonal():
    u = random_field(3, 3, Z3, seed=14, sparse=True)  # sparse but not zonal
    g = sample_magnitude(u, radial_grid(24), 10)
    with pytest.raises(ValueError, match="zonal"):
        extract_magnitude_data(g, 3, 3)


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
    beta = _legendre_triples(M)
    with mp.workdps(WORK_DPS):
        base = _mp_columns(pairs, g.radii, 3)
        cols = [
            [mpf((1 if m == n else 2) * beta[m, n, p.frequency]) * v for p in profiles for v in col]
            for (m, n), col in zip(pairs, base)
        ]
        rhs = [mpf(float(v)) for p in profiles for v in p.values]
        sol, _, _, deficient = _mp_qr_solve(cols, rhs)
    assert not deficient
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
    # a degree-7 field on 48 radii: the residuals stop improving at 6, but
    # the profiles above frequency 12 hold content far above rounding
    u = random_field(2, 7, F2, seed=7000)
    g = sample_magnitude(u, radial_grid(48), 33)
    with pytest.raises(DegreeUnresolvableError, match="degree 7 unresolvable"):
        estimate_max_degree(g, 2)


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
