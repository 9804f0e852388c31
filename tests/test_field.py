import hashlib
import importlib
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_pow_int, round_nearest

import herglotz
from herglotz import field, harmonics, retrieve
from herglotz.extract import RadialProfile, angular_decompose, radial_grid
from herglotz.field import (
    HerglotzField,
    MagnitudeGrid,
    add_fields,
    conjugate_field,
    degree_power,
    equal_magnitude,
    eval_field,
    eval_field_grid,
    magnitude_coeffs,
    magnitude_sq,
    magnitude_sq_from_modes,
    mean_coefficient,
    random_field,
    sample_magnitude,
    trivially_equivalent,
)
from herglotz.harmonics import _TABLE_SIZE, BasisSpec, fourier2d_basis, sphere_grid
from herglotz.specfun import bessel_j

F2 = fourier2d_basis()
Z3 = BasisSpec("zonal", 3)


def _f2(coeff_map, M):
    u = HerglotzField.zero(2, M, F2)
    for k, c in coeff_map.items():
        m = abs(k)
        j = 0 if k >= 0 else 1
        u.coeffs[m][j] = c
    return u


def _unit(ang):
    return np.array([math.cos(ang), math.sin(ang)])


def test_eval_zero_field():
    u = HerglotzField.zero(2, 3, F2)
    assert eval_field(u, 0.4, _unit(1.0)) == 0.0
    assert eval_field(u, 0.0, _unit(0.2)) == 0.0


def test_eval_mean_mode_2d():
    u = _f2({0: 1.0}, 0)
    for r in (0.0, 0.3, 0.9):
        expected = math.sqrt(2 * math.pi) * bessel_j(0, r)
        for ang in (0.0, 1.3, 4.0):
            assert eval_field(u, r, _unit(ang)) == pytest.approx(expected, rel=1e-13)


def test_eval_limit_at_zero_3d():
    u = HerglotzField.zero(3, 1, Z3)
    u.coeffs[0][0] = 1.0
    got = eval_field(u, 0.0, np.array([0.0, 0.0, 1.0]))
    expected = math.sqrt(2 * math.pi) / (math.sqrt(2) * math.gamma(1.5))
    assert got == pytest.approx(expected, rel=1e-13)


def test_eval_continuity_at_zero():
    u = random_field(3, 3, Z3, seed=3)
    th = np.array([0.0, 0.6, 0.8])
    v0 = eval_field(u, 0.0, th)
    devs = [abs(eval_field(u, eps, th) - v0) for eps in (1e-2, 1e-4, 1e-6)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-5


def test_point_wise_evaluation_leaves_the_value_table_bounded():
    u = random_field(3, 1, BasisSpec("zonal", 3), seed=5)
    data = magnitude_coeffs(u)
    table = harmonics._value_table.cache_info
    assert table().currsize == u.max_degree + 1  # one entry per degree on the data grid
    before = table()
    pts = np.random.default_rng(0).standard_normal((10_000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    vals = [eval_field(u, 0.5, p) for p in pts]
    assert table() == before and before.currsize <= _TABLE_SIZE
    assert vals[0] == eval_field_grid(u, [0.5], pts[:2])[0, 0]
    assert np.array_equal(magnitude_coeffs(u).table, data.table)


def test_eval_warns_beyond_working_radius():
    u = random_field(2, 2, F2, seed=0)
    with pytest.warns(UserWarning):
        eval_field(u, 1.5, _unit(0.1))


def test_magnitude_single_mode():
    u = _f2({1: 1.0}, 1)
    for r in (0.2, 0.8):
        expected = 2 * math.pi * bessel_j(1, r) ** 2
        assert magnitude_sq(u, r, _unit(0.7)) == pytest.approx(expected, rel=1e-12)


def test_magnitude_unimodular_invariance():
    u = random_field(2, 3, F2, seed=1)
    v = u.scaled(1j)
    for r in (0.3, 0.9):
        assert magnitude_sq(u, r, _unit(2.0)) == pytest.approx(
            magnitude_sq(v, r, _unit(2.0)), rel=1e-14
        )


def test_magnitude_modes_path_agrees():
    for seed, (dim, basis) in enumerate([(2, F2), (3, Z3)]):
        u = random_field(dim, 4, basis, seed=seed)
        th = np.array([0.0, 0.6, 0.8]) if dim == 3 else _unit(0.9)
        for r in (0.15, 0.5, 1.0):
            a = magnitude_sq(u, r, th)
            b = magnitude_sq_from_modes(u, r, th)
            assert b == pytest.approx(a, rel=1e-10)


def test_magnitude_coeffs_single_mode_diag():
    u = _f2({1: 1.0}, 1)
    data = magnitude_coeffs(u)
    assert np.allclose(data.pair_samples(1, 1), 1.0)
    tab = data.pair_fourier(1, 1)
    assert tab[0] == pytest.approx(1.0)
    assert abs(tab.get(2, 0.0)) < 1e-15


def test_magnitude_coeffs_zero_field():
    data = magnitude_coeffs(HerglotzField.zero(2, 2, F2))
    assert data.max_abs() == 0.0


def test_magnitude_coeffs_diagonals_nonnegative():
    for seed in range(4):
        u = random_field(2, 5, F2, seed=seed)
        data = magnitude_coeffs(u)
        for m in range(6):
            assert data.pair_samples(m, m).min() >= -1e-12


def test_fourier_conjugate_symmetry():
    u = random_field(2, 4, F2, seed=8)
    data = magnitude_coeffs(u)
    for (m, n) in data.pairs():
        tab = data.pair_fourier(m, n)
        for q, c in tab.items():
            assert tab[-q] == pytest.approx(np.conj(c), abs=1e-15)


def test_synthesis_identity_random_fields():
    # 2 pi r^{-(d-2)} sum_{m,n} Re c_{m,n}(theta) J J = |u|^2 pointwise
    rng = np.random.default_rng(0)
    for seed in range(3):
        M = int(rng.integers(2, 9))
        u = random_field(2, M, F2, seed=100 + seed)
        data = magnitude_coeffs(u)
        radii = np.array([0.11, 0.43, 0.77, 1.0])
        js = {m: bessel_j(m, radii) for m in range(M + 1)}
        step = max(1, len(data.grid) // 6)
        idx = list(range(0, len(data.grid), step))
        nodes = data.grid.nodes[idx]
        for ri, r in enumerate(radii):
            total = np.zeros(len(idx))
            for m in range(M + 1):
                for n in range(M + 1):
                    key = (min(m, n), max(m, n))
                    total += data.pair_samples(*key)[idx] * js[m][ri] * js[n][ri]
            direct = np.abs(eval_field_grid(u, [r], nodes)[0]) ** 2
            assert np.abs(2 * math.pi * total - direct).max() < 1e-9


@pytest.mark.parametrize("M", [0, 1, 4, 8])
def test_synthesized_samples_equal_the_full_ascending_sum(M):
    # a pair carries at most four frequencies; summing only those, in
    # ascending order, gives the bits of the sum over all 4M + 1 of them
    data = magnitude_coeffs(random_field(2, M, F2, seed=40 + M))
    full = np.zeros((M + 1, M + 1, len(data.grid)), dtype=complex)
    for k, q in enumerate(range(-2 * M, 2 * M + 1)):
        full += data.table[:, :, k, None] * np.exp(1j * q * data.grid.angles)
    for m in range(M + 1):
        for n in range(M + 1):
            bits = data.pair_samples(m, n).view(np.int64)
            assert np.array_equal(bits, full[m, n].real.view(np.int64))


def test_equal_magnitude_trivial_transforms():
    rng = np.random.default_rng(7)
    for trial in range(100):
        M = int(rng.integers(1, 5))
        u = random_field(2, M, F2, seed=200 + trial)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert equal_magnitude(u, u.scaled(phase))
        assert equal_magnitude(u, conjugate_field(u))


def test_equal_magnitude_detects_perturbation():
    u = random_field(2, 4, F2, seed=5)
    v = u.copy()
    v.coeffs[2][0] += 1e-3
    assert not equal_magnitude(u, v)


def test_equal_magnitude_d3():
    u = random_field(3, 3, Z3, seed=6)
    assert equal_magnitude(u, u.scaled(-1j))
    v = u.copy()
    v.coeffs[1][1] += 2e-3
    assert not equal_magnitude(u, v)


def test_trivially_equivalent_verdicts():
    u = random_field(2, 4, F2, seed=11)
    te = trivially_equivalent(u, u.scaled(1j))
    assert te.verdict == "Identity" and te.c == pytest.approx(1j)
    te = trivially_equivalent(u, conjugate_field(u))
    assert te.verdict == "Conjugate" and te.c == pytest.approx(1.0)
    te = trivially_equivalent(u, random_field(2, 4, F2, seed=12))
    assert te.verdict == "Inequivalent" and te.c is None
    zero = HerglotzField.zero(2, 2, F2)
    te = trivially_equivalent(zero, zero)
    assert te.verdict == "Both" and te.c == 1.0
    # a real field is trivially equivalent to its conjugate in both ways
    ur = random_field(2, 3, F2, seed=13, real=True)
    assert trivially_equivalent(ur, conjugate_field(ur)).verdict == "Both"


def test_pole_table_check_does_not_depend_on_call_order():
    # the same coefficients in the default basis and in one whose degree-2
    # poles run in reverse: different fields, whether or not the default
    # basis has read its degree-2 table yet
    reversed_poles = {2: harmonics.default_poles(3, 2)[::-1].copy()}
    u = random_field(3, 2, BasisSpec("zonal", 3, poles=reversed_poles), seed=9)
    for warm in (False, True):
        v = HerglotzField(3, 2, BasisSpec("zonal", 3), [c.copy() for c in u.coeffs])
        if warm:
            v.basis.poles_for(2)
        with pytest.raises(ValueError, match="zonal pole tables differ"):
            trivially_equivalent(u, v)


def test_degree_power_values():
    zero = HerglotzField.zero(2, 3, F2)
    assert degree_power(zero, 2) == 0.0
    u = _f2({1: 3j}, 1)
    assert degree_power(u, 1) == pytest.approx(9.0)
    assert degree_power(u, 5) == 0.0


def test_degree_power_gram_vs_orthonormal():
    # the raw-basis Gram route must agree with the orthonormalized route
    u = random_field(3, 3, Z3, seed=14)
    spec_o = BasisSpec("zonal", 3, "orthonormal", poles=dict(Z3.poles))
    for m in range(4):
        raw_power = degree_power(u, m)
        T = Z3.ortho_transform(m)
        b = np.linalg.solve(T, u.coeffs[m])
        assert raw_power == pytest.approx(float(np.sum(np.abs(b) ** 2)), rel=1e-9)


def test_degree_power_invariance_under_trivial_transforms():
    for seed in range(5):
        u = random_field(2, 4, F2, seed=30 + seed)
        v = u.scaled(np.exp(0.3j))
        w = conjugate_field(u)
        for m in range(5):
            p = degree_power(u, m)
            assert degree_power(v, m) == pytest.approx(p, abs=1e-12)
            assert degree_power(w, m) == pytest.approx(p, abs=1e-12)


def test_mean_coefficient_recovery():
    for dim, basis in [(2, F2), (3, Z3)]:
        u = random_field(dim, 3, basis, seed=15)
        got = mean_coefficient(u)
        assert got == pytest.approx(complex(u.coeffs[0][0]), abs=1e-9)


def test_mean_coefficient_zero_mean_and_linearity():
    u = random_field(2, 3, F2, seed=16, zero_mean=True)
    assert abs(mean_coefficient(u)) < 1e-12
    w = random_field(2, 3, F2, seed=17)
    s = add_fields(u, w)
    assert mean_coefficient(s) == pytest.approx(
        mean_coefficient(u) + mean_coefficient(w), abs=1e-12
    )


def test_mean_coefficient_rejects_bessel_zero():
    u = random_field(2, 2, F2, seed=18)
    with pytest.raises(ValueError, match="Bessel zero"):
        mean_coefficient(u, eta=2.404825557695773)


def test_conjugate_field_magnitudes_match():
    u = random_field(2, 4, F2, seed=19)
    v = conjugate_field(u)
    grid = sphere_grid(2, 16)
    radii = [0.2, 0.7, 1.0]
    a = np.abs(eval_field_grid(u, radii, grid.nodes))
    b = np.abs(eval_field_grid(v, radii, grid.nodes))
    assert np.abs(a - b).max() < 1e-12
    # and conjugation is an involution on coefficients
    w = conjugate_field(v)
    for m in range(u.max_degree + 1):
        assert np.array_equal(w.coeffs[m], u.coeffs[m])


def test_support_verifier_equal_powers():
    # equal-magnitude pairs have equal per-degree power
    for seed in range(5):
        u = random_field(2, 4, F2, seed=40 + seed)
        v = conjugate_field(u).scaled(np.exp(1j * seed))
        assert equal_magnitude(u, v)
        for m in range(5):
            assert degree_power(u, m) == pytest.approx(degree_power(v, m), abs=1e-9)


def test_random_field_constraints():
    u = random_field(2, 4, F2, seed=50, real=True)
    for m in range(1, 5):
        assert u.coeffs[m][1] == pytest.approx(np.conj(u.coeffs[m][0]))
    assert u.coeffs[0][0].imag == 0
    u = random_field(3, 4, Z3, seed=51, real=True)
    assert all(np.abs(v.imag).max(initial=0) == 0 for v in u.coeffs)
    u = random_field(3, 4, Z3, seed=52, sparse=True)
    for vec in u.coeffs:
        assert np.count_nonzero(vec) <= 1
    u = random_field(3, 4, Z3, seed=53, zonal=True)
    for vec in u.coeffs[1:]:
        assert np.count_nonzero(vec[1:]) == 0
    u = random_field(2, 4, F2, seed=54, zero_mean=True)
    assert u.coeffs[0][0] == 0
    u = random_field(2, 4, F2, seed=55, all_r=True)
    for m in range(1, 5):
        assert abs(u.coeffs[m][0]) == pytest.approx(abs(u.coeffs[m][1]))
    with pytest.raises(ValueError):
        random_field(3, 2, Z3, seed=0, all_r=True)


def test_sample_magnitude_shapes():
    u = random_field(2, 2, F2, seed=60)
    radii = np.array([0.1, 0.5, 1.0])
    g = sample_magnitude(u, radii, 9)
    assert g.values.shape == (3, 9)
    assert np.all(g.values >= 0)
    gh = sample_magnitude(u, radii, 9, dps=30)
    assert gh.values.dtype == object
    assert float(gh.values[1, 3]) == pytest.approx(g.values[1, 3], rel=1e-12)


def test_sample_magnitude_mp_against_independent_evaluation():
    u = random_field(2, 5, F2, seed=62)
    radii = radial_grid(10)
    Q = 11
    g = sample_magnitude(u, radii, Q, dps=40)
    double = sample_magnitude(u, radii, Q).values
    scale = np.abs(double).max()
    with mp.workdps(40):
        for ri, r in enumerate(radii):
            for k in range(Q):
                theta = 2 * mp.pi * k / Q
                f = mpc(u.coeffs[0][0]) * mp.besselj(0, r)
                for m in range(1, 6):
                    c_plus, c_minus = u.coeffs[m]
                    wave = c_plus * mp.expj(m * theta) + c_minus * mp.expj(-m * theta)
                    f += wave * mp.besselj(m, r)
                ref = 2 * mp.pi * abs(f) ** 2
                assert abs(g.values[ri, k] - ref) <= 1e-35 * scale
    assert np.abs(g.values.astype(float) - double).max() <= 1e-13 * scale
    # the mp DFT of the 40-digit samples against numpy's on their double cast
    coef = np.fft.fft(g.values.astype(float), axis=1) / Q
    for prof in angular_decompose(g, 2):
        mp_values = prof.values.astype(complex)
        assert np.abs(mp_values - coef[:, prof.frequency]).max() <= 1e-14 * scale


def test_warm_mp_sampling_reads_its_bessel_rows_from_the_table(monkeypatch):
    # the rows depend on (order, radii, precision) only, so a second field on
    # the same radii computes none, and its samples are those of cold tables
    calls = []
    original = field.bessel_j_mp
    monkeypatch.setattr(field, "bessel_j_mp", lambda *a: calls.append(a) or original(*a))
    radii = radial_grid(24)
    u, v = random_field(2, 4, F2, seed=70), random_field(2, 4, F2, seed=71)
    sample_magnitude(u, radii, 17, dps=40)
    assert len(calls) == 5 * 24
    warm = sample_magnitude(v, radii.copy(), 17, dps=40)
    assert len(calls) == 5 * 24
    field._mp_bessel_row.cache_clear()
    cold = sample_magnitude(v, radii, 17, dps=40)
    assert len(calls) == 2 * 5 * 24
    assert [x._mpf_ for x in warm.values.flat] == [x._mpf_ for x in cold.values.flat]


def test_mp_sampling_rows_key_on_the_precision():
    u = random_field(2, 2, F2, seed=72)
    radii = radial_grid(8)
    g30 = sample_magnitude(u, radii, 9, dps=30)
    g40 = sample_magnitude(u, radii, 9, dps=40)
    info = field._mp_bessel_row.cache_info()
    assert (info.misses, info.hits, info.currsize) == (6, 0, 6)
    field._mp_bessel_row.cache_clear()
    assert [x._mpf_ for x in sample_magnitude(u, radii, 9, dps=30).values.flat] == [
        x._mpf_ for x in g30.values.flat
    ]
    assert any(a != b for a, b in zip(g30.values.flat, g40.values.flat))


@pytest.mark.parametrize("dps", [0, -5])
def test_sample_magnitude_refuses_a_dps_below_one(dps):
    # these once returned samples of a digit or two: 3.0 and 2.0 where 40
    # digits give 3.5828
    u = random_field(2, 2, F2, seed=60)
    with pytest.raises(ValueError, match=f"dps must be a positive number of digits, got {dps}"):
        sample_magnitude(u, np.array([0.1, 0.5, 1.0]), 9, dps=dps)


def _far(s, t, prec):
    """Whether mpf_add(s, t, prec) takes its shortcut for an operand more than
    prec + 4 bits below the other."""
    return bool(s[1] and t[1] and abs(s[2] - t[2]) > 100
                and abs(s[2] + s[3] - t[2] - t[3]) > prec + 4)


def _operator_loop_samples(u, radii, angular, dps):
    """The samples from the libmp operator loop that the integer
    kernel replaced (same phases, same order of operations), as raw tuples,
    with the number of additions that took mpf_add's far-operand shortcut."""
    out, far = [], 0
    with mp.workdps(dps):
        prec, rnd = mp.prec, round_nearest
        degrees = range(u.max_degree + 1)
        rows = list(zip(*(field._mp_bessel_row(m, radii.tobytes(), prec) for m in degrees)))
        coeffs = [[mpc(c) for c in u.coeffs[m]] for m in degrees]
        pref = (2 * mp.pi)._mpf_
        for qi in range(angular):
            f = [coeffs[0][0]]
            for m in degrees[1:]:
                phase = mp.expjpi(mpf(2 * m * qi) / angular)
                f.append(coeffs[m][0] * phase + coeffs[m][1] / phase)
            column = []
            for jrow in rows:
                re_, im = fzero, fzero
                for (a, b), j in zip((z._mpc_ for z in f), jrow):
                    ta, tb = mpf_mul(a, j, prec, rnd), mpf_mul(b, j, prec, rnd)
                    far += _far(re_, ta, prec) + _far(im, tb, prec)
                    re_, im = mpf_add(re_, ta, prec, rnd), mpf_add(im, tb, prec, rnd)
                square = mpf_add(mpf_pow_int(re_, 2, prec, rnd), mpf_pow_int(im, 2, prec, rnd),
                                 prec, rnd)
                column.append(mpf_mul(pref, square, prec, rnd))
            out.append(column)
    return [x for row in zip(*out) for x in row], far


FAMILIES = [{}, {"real": True}, {"sparse": True}, {"zero_mean": True}, {"all_r": True}]


@pytest.mark.parametrize("dps", [15, 30, 40, 60])
def test_integer_kernel_matches_the_libmp_operator_loop(dps):
    radii = radial_grid(6)
    for M in range(7):
        for i, flags in enumerate(FAMILIES):
            u = random_field(2, M, F2, seed=100 * M + i, **flags)
            got = sample_magnitude(u, radii, 2 * M + 3, dps=dps)
            assert [x._mpf_ for x in got.values.flat] == _operator_loop_samples(
                u, radii, 2 * M + 3, dps)[0], (M, flags)


@pytest.mark.parametrize("dps", [15, 30, 40, 60])
def test_integer_kernel_matches_the_operator_loop_across_300_decades(dps):
    # moduli from 1e-300 to 1e300 in one field put one product far below the
    # running sum, the case mpf_add rounds through a shortcut; zeros too
    rng = np.random.default_rng(dps)
    radii = radial_grid(4)
    far = 0
    for k in range(8):
        M = 1 + k % 6
        coeffs = [10.0 ** rng.choice([-300, -150, 0, 150, 300], 2 if m else 1)
                  * np.exp(1j * rng.uniform(0, 2 * np.pi, 2 if m else 1)) for m in range(M + 1)]
        coeffs[k % (M + 1)][0] = 0
        u = HerglotzField(2, M, F2, coeffs)
        want, n_far = _operator_loop_samples(u, radii, 2 * M + 3, dps)
        far += n_far
        got = sample_magnitude(u, radii, 2 * M + 3, dps=dps)
        assert [x._mpf_ for x in got.values.flat] == want
    assert far > 0
    zero = HerglotzField.zero(2, 3, F2)
    assert all(x._mpf_ == fzero for x in sample_magnitude(zero, radii, 9, dps=dps).values.flat)


def test_mp_samples_keep_their_golden_digest():
    # sha256 of the 40-digit samples of three precise2d-shaped fields (M = 6,
    # 64 radii x 40 angles); any change to their rounding changes it
    h = hashlib.sha256()
    for seed in (2901, 2902, 2903):
        g = sample_magnitude(random_field(2, 6, F2, seed=seed), radial_grid(64), 40, dps=40)
        for x in g.values.flat:
            sign, man, exp, _ = x._mpf_
            h.update(f"{sign} {int(man)} {exp}\n".encode())
    assert h.hexdigest() == "4ef552e96b891c69ab5e074bc040e2cb8982540a2c0a39fb5f074ed3c139bf16"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("dps", [None, 40])
def test_sample_magnitude_refuses_non_finite_coefficients(bad, dps):
    # both paths once returned NaN samples
    u = random_field(2, 3, F2, seed=75)
    u.coeffs[2][1] = bad
    msg = re.escape(f"degree 2 has a non-finite coefficient {complex(bad)}")
    with pytest.raises(ValueError, match=msg):
        sample_magnitude(u, radial_grid(4), 13, dps=dps)


@pytest.mark.parametrize("radii", [[], 0.5, [[0.1, 0.5, 0.9]]])
def test_radii_must_be_a_nonempty_1d_array(radii):
    # an empty array once sampled to a (0, 13) grid, whose extraction failed
    # inside numpy; a scalar failed inside np.diff
    shape = np.shape(radii)
    u = random_field(2, 2, F2, seed=1)
    for build in (
        lambda: MagnitudeGrid(2, radii, sphere_grid(2, 13), np.ones((0, 13))),
        lambda: RadialProfile(2, 0, radii, np.ones(0)),
        lambda: sample_magnitude(u, radii, 13),
        lambda: sample_magnitude(u, radii, 13, dps=30),
    ):
        with pytest.raises(ValueError, match=re.escape(
                f"radii must be a nonempty 1-D array, got shape {shape}")):
            build()


@pytest.mark.parametrize("dps", [None, 40])
def test_magnitude_grid_checks_the_shape_of_its_values(dps):
    # with one angle column dropped, this 24 x 13 grid once extracted without
    # an error, to a largest residual of 0.11 (double) or 1.34 (mp)
    g = sample_magnitude(random_field(2, 3, F2, seed=73), radial_grid(24), 13, dps=dps)
    with pytest.raises(ValueError, match=r"shape \(24, 12\); 24 radii and 13 sphere nodes "
                                         r"need \(24, 13\)"):
        MagnitudeGrid(2, g.radii, g.grid, g.values[:, :12])
    with pytest.raises(ValueError, match=r"shape \(13, 24\)"):
        MagnitudeGrid(2, g.radii, g.grid, g.values.T)


def test_magnitude_grid_values_are_read_only_and_its_own():
    vals = np.ones((3, 9))
    g = MagnitudeGrid(2, [0.1, 0.5, 1.0], sphere_grid(2, 9), vals)
    with pytest.raises(ValueError, match="read-only"):
        g.values[0, 0] = 2.0
    vals[0, 0] = 2.0
    assert g.values[0, 0] == 1.0
    mp_grid = sample_magnitude(random_field(2, 1, F2, seed=74), radial_grid(4), 5, dps=30)
    with pytest.raises(ValueError, match="read-only"):
        mp_grid.values[0, 0] = mp_grid.values[0, 1]


def test_field_validation():
    with pytest.raises(ValueError, match="max_degree must be >= 0, got -1"):
        HerglotzField(2, -1, F2, [])
    for flags in ({}, {"zero_mean": True}, {"all_r": True}, {"real": True}):
        with pytest.raises(ValueError, match="max_degree must be >= 0, got -1"):
            random_field(2, -1, F2, 0, **flags)
    with pytest.raises(ValueError):
        HerglotzField(2, 1, F2, [np.zeros(1, complex)])
    with pytest.raises(ValueError):
        HerglotzField(2, 0, F2, [np.zeros(2, complex)])
    with pytest.raises(ValueError):
        HerglotzField(3, 0, F2, [np.zeros(1, complex)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_radii_are_refused_by_value(bad):
    # np.diff comparisons with NaN are false, so a NaN radius once passed the
    # ordering check, and extraction then failed with a series ConvergenceError
    radii = np.array([0.5, bad, 0.9])
    u = random_field(2, 2, F2, seed=1)
    for build in (
        lambda: MagnitudeGrid(2, radii, sphere_grid(2, 9), np.ones((3, 9))),
        lambda: RadialProfile(2, 0, radii, np.ones(3)),
        lambda: sample_magnitude(u, radii, 9),
        lambda: sample_magnitude(u, radii, 9, dps=30),
    ):
        with pytest.raises(ValueError, match=f"non-finite radius {bad}"):
            build()
    for radii in ([0.5, 0.5], [-0.5, 0.5], [0.9, 0.5]):
        with pytest.raises(ValueError, match="radii must be positive and strictly increasing"):
            RadialProfile(2, 0, radii, np.ones(2))


@pytest.mark.parametrize("eta", [-1.0, 0.0, math.nan, math.inf])
def test_radial_grid_refuses_a_ball_radius_that_is_not_positive_and_finite(eta):
    with pytest.raises(ValueError, match=f"eta must be positive and finite, got {eta}"):
        radial_grid(4, eta=eta)
    assert np.all(radial_grid(4, eta=2.0) > 0)


def test_array_holding_dataclasses_compare_by_identity():
    # a generated __eq__ compared their arrays elementwise and raised "the
    # truth value of an array ... is ambiguous" for equal explicit pole tables
    a = BasisSpec("zonal", 3, poles={2: harmonics.default_poles(3, 2).copy()})
    b = BasisSpec("zonal", 3, poles={2: harmonics.default_poles(3, 2).copy()})
    u, v = random_field(3, 2, a, seed=1), random_field(3, 2, b, seed=1)
    g = sample_magnitude(random_field(2, 1, F2, seed=1), radial_grid(4), 5)
    h = sample_magnitude(random_field(2, 1, F2, seed=1), radial_grid(4), 5)
    p, q = angular_decompose(g, 2)[0], angular_decompose(h, 2)[0]
    for x, y in ((a, b), (u, v), (g, h), (p, q)):
        assert x == x and x != y


def test_magnitude_data_refuses_a_table_that_does_not_fit_its_degree_and_grid():
    # shifted one slot into a (3, 3, 11) array, this table was once accepted and
    # read 0j at (1, 1, 2), where it holds -0.0699 + 0.1736i
    data = magnitude_coeffs(random_field(2, 2, F2, seed=3))
    shifted = np.zeros((3, 3, 11), dtype=complex)
    shifted[:, :, 1:10] = data.table
    msg = "table has shape (3, 3, 11); degree 2 needs (3, 3, 9)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        field.MagnitudeData(2, data.grid, shifted)
    d3 = magnitude_coeffs(random_field(3, 2, Z3, seed=3))
    n = len(d3.grid)
    msg = f"table has shape (3, 3, {n - 1}); degree 2 needs (3, 3, {n})"
    with pytest.raises(ValueError, match=re.escape(msg)):
        field.MagnitudeData(3, d3.grid, d3.table[..., 1:])
    # NaN entries keep their shape and stay for the solvers to refuse
    assert np.isnan(field.MagnitudeData(2, data.grid, np.full((3, 3, 9), np.nan)).table).all()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_the_comparisons_refuse_an_invalid_tol(tol):
    # nan once read u and i u as unequal and inequivalent, inf read two
    # unrelated fields as Both, and -1 raised a misleading contradiction
    u = random_field(2, 3, F2, 1)
    v = random_field(2, 3, F2, 2)
    with pytest.raises(ValueError, match=f"tol must be finite and nonnegative, got {tol}"):
        equal_magnitude(u, u.scaled(1j), tol=tol)
    with pytest.raises(ValueError, match=f"tol must be finite and nonnegative, got {tol}"):
        trivially_equivalent(u, v, tol=tol)


def test_a_zero_comparison_tol_stays_legal():
    u = random_field(2, 3, F2, 1)
    assert equal_magnitude(u, u, tol=0.0)
    assert trivially_equivalent(u, u, tol=0.0).verdict == field.IDENTITY


@pytest.mark.parametrize("radii", [[], [0.0], [0.0, 0.5], [0.25, 0.5]])
def test_grid_evaluation_matches_pointwise_evaluation_with_and_without_r0(radii):
    u = random_field(3, 2, Z3, 1)
    nodes = sphere_grid(3, 4).nodes
    grid = eval_field_grid(u, radii, nodes)
    assert grid.shape == (len(radii), len(nodes))
    for i, r in enumerate(radii):
        assert np.allclose(grid[i], [eval_field(u, r, t) for t in nodes], rtol=1e-13, atol=0)


def test_padding_to_its_own_degree_shares_the_coefficients():
    u = random_field(2, 3, F2, 1)
    assert u.padded(3) is u
    w = u.padded(5)
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(w.coeffs, u.coeffs))
    assert not np.any(w.coeffs[4]) and not np.any(w.coeffs[5])


@pytest.mark.parametrize("u", [
    random_field(2, 3, F2, 1),
    random_field(2, 3, F2, 2, zero_mean=True),
    random_field(3, 3, Z3, 1),
    random_field(3, 3, Z3, 2, sparse=True),
], ids=["d2", "d2-zero-mean", "d3", "d3-sparse"])
def test_no_comparison_or_retrieval_writes_to_a_fields_coefficients(u):
    # padded(M) at the field's own degree hands out the field itself, so the
    # chain must leave the arrays it reads as they are: frozen, any write raises
    for vec in u.coeffs:
        vec.flags.writeable = False
    v = conjugate_field(u)
    assert equal_magnitude(u, v) and equal_magnitude(v, u)
    assert trivially_equivalent(u, v).equivalent
    add_fields(u, u)
    retrieve.canonicalize(u)
    data = magnitude_coeffs(u)
    if u.dim == 2:
        retrieve.retrieve_2d(data)
        if not np.any(u.coeffs[0]):
            retrieve.classify_modes(u, v)
    elif np.any(u.coeffs[0]):
        retrieve.retrieve_3d_mean(data, u.basis)
    else:
        retrieve.retrieve_3d_sparse(data, u.basis)


def test_the_d2_tables_follow_angles_changed_in_place():
    _real_basis_values = retrieve._real_basis_values
    std = sphere_grid(2, 13)
    grid = harmonics.SphereGrid(2, std.nodes, std.weights, angles=np.array(std.angles))
    table = magnitude_coeffs(random_field(2, 3, F2, 1)).table
    _real_basis_values(F2, 2, grid)
    field.MagnitudeData(2, grid, table)
    grid.angles[:] += 0.25
    fresh = harmonics.SphereGrid(2, grid.nodes, grid.weights, angles=grid.angles.copy())
    assert np.array_equal(_real_basis_values(F2, 2, grid), _real_basis_values(F2, 2, fresh))
    assert np.array_equal(_real_basis_values(F2, 2, grid)[:, 0], np.cos(2 * grid.angles))
    shifted = field.MagnitudeData(2, grid, table).pair_samples(1, 2)
    assert np.array_equal(shifted, field.MagnitudeData(2, fresh, table).pair_samples(1, 2))
    assert not np.array_equal(shifted, field.MagnitudeData(2, std, table).pair_samples(1, 2))


def test_cold_tables_empties_every_per_grid_table():
    # conftest's cold_tables calls cache_clear on each module-level object of
    # the package that has one; the per-grid tables of the magnitude-data
    # chain are among them
    for M in (2, 3):
        u = random_field(2, M, F2, 1)
        retrieve.retrieve_2d(magnitude_coeffs(u))
    retrieve.retrieve_3d_mean(magnitude_coeffs(random_field(3, 2, Z3, 1)), Z3)
    tables = {
        "harmonics._array_key": lambda: len(harmonics._ARRAY_KEYS),
        "field._synthesis_plan": lambda: field._synthesis_plan.cache_info().currsize,
        "field._mirror_index": lambda: field._mirror_index.cache_info().currsize,
        "retrieve._trig_table": lambda: retrieve._trig_table.cache_info().currsize,
    }
    assert all(size() for size in tables.values())
    for info in pkgutil.iter_modules(herglotz.__path__):
        for obj in vars(importlib.import_module(f"herglotz.{info.name}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    assert {name: size() for name, size in tables.items()} == dict.fromkeys(tables, 0)
