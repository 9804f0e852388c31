import math

import numpy as np
import pytest
from mpmath import mp, mpc

from herglotz.extract import angular_decompose, radial_grid
from herglotz.field import (
    HerglotzField,
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
from herglotz.harmonics import BasisSpec, fourier2d_basis, sphere_grid
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


def test_field_validation():
    with pytest.raises(ValueError):
        HerglotzField(2, 1, F2, [np.zeros(1, complex)])
    with pytest.raises(ValueError):
        HerglotzField(2, 0, F2, [np.zeros(2, complex)])
    with pytest.raises(ValueError):
        HerglotzField(3, 0, F2, [np.zeros(1, complex)])
