"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module also runs as part of the plain test suite.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from herglotz.extract import extract_magnitude_data, radial_grid, radial_unmix
from herglotz.field import (
    HerglotzField,
    degree_power,
    equal_magnitude,
    magnitude_coeffs,
    random_field,
    sample_magnitude,
    trivially_equivalent,
)
from herglotz.harmonics import (
    BasisSpec,
    degree_multi_indices,
    fourier2d_basis,
    gram_rank,
    harmonic_dim,
    p_alpha,
    sphere_grid,
)
from herglotz.poly import Polynomial
from herglotz.retrieve import (
    retrieve_2d,
    retrieve_3d_mean,
    retrieve_3d_real,
    retrieve_3d_sparse,
)
from herglotz.specfun import bessel_j, bessel_product_integral, bessel_product_series

F2 = fourier2d_basis()
Z3 = BasisSpec("zonal", 3)
P3 = BasisSpec("palpha", 3)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_bessel_identities():
    t0 = time.perf_counter()
    rs = np.linspace(0.2, 10.0, 50)
    worst_prod = worst_int = 0.0
    for alpha in (0.0, 0.5, 1.0):
        for n in range(0, 9):
            for m in range(n, 9):
                series = bessel_product_series(n, m, alpha, rs)
                direct = bessel_j(n + alpha, rs) * bessel_j(m + alpha, rs)
                integ = bessel_product_integral(n, m, alpha, rs, quad_points=512)
                worst_prod = max(
                    worst_prod,
                    float((np.abs(series - direct) / (1 + np.abs(direct))).max()),
                )
                worst_int = max(
                    worst_int,
                    float((np.abs(series - integ) / (1 + np.abs(series))).max()),
                )
    elapsed = time.perf_counter() - t0
    ok = worst_prod <= 1e-10 and worst_int <= 1e-8 and elapsed < 5.0
    _report(
        1,
        ok,
        f"product dev {worst_prod:.2e} (tol 1e-10), integral dev {worst_int:.2e} "
        f"(tol 1e-8), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_harmonicity():
    t0 = time.perf_counter()
    checked = 0
    for d in (3, 4):
        rho = Polynomial.radius_sq(d)
        for m in range(0, 7):
            for alpha in degree_multi_indices(d, m):
                p = p_alpha(alpha, d)
                if not p.laplacian().is_zero():
                    _report(2, False, f"p_alpha{alpha} (d={d}) is not harmonic")
                diff = p - Polynomial.monomial(alpha, 1)
                if not diff.is_zero() and diff.divide_exact(rho) is None:
                    _report(2, False, f"p_alpha{alpha} - x^alpha not divisible by |x|^2")
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(
        2,
        ok,
        f"{checked} polynomials harmonic and structured in exact arithmetic, "
        f"runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_squared_basis_independence():
    worst = []
    for spec, d, res in ((Z3, 3, 16), (P3, 3, 16), (BasisSpec("palpha", 4), 4, 14)):
        grid = sphere_grid(d, res)
        for m in range(1, 7):
            vals = np.real(spec.values(m, grid.nodes))
            rank, sv = gram_rank(
                [vals[:, j] ** 2 for j in range(vals.shape[1])], grid
            )
            n = harmonic_dim(d, m)
            if rank != n or sv <= 1e-8:
                _report(
                    3,
                    False,
                    f"{spec.kind} d={d} m={m}: rank {rank} of {n}, min sv {sv:.2e}",
                )
            worst.append(sv)
    _report(
        3,
        True,
        f"squared-basis Gram full rank up to m=6 (zonal d3, p-basis d3/d4), "
        f"worst normalized min singular value {min(worst):.2e} (> 1e-8)",
    )


def test_criterion_4_antisymmetric_families_cancel():
    rng = np.random.default_rng(2024)
    rs = np.linspace(1e-3, 1.0, 60)
    M = 8
    worst = 0.0
    for trial in range(20):
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        c = rng.standard_normal((M + 1, M + 1)) + 1j * rng.standard_normal(
            (M + 1, M + 1)
        )
        c = c - c.T
        js = {n: bessel_j(n + alpha, rs) for n in range(M + 1)}
        total = np.zeros(len(rs), dtype=complex)
        for n in range(M + 1):
            for m in range(M + 1):
                total += c[n, m] * js[n] * js[m]
        worst = max(worst, float(np.abs(total).max()))
    _report(4, worst <= 1e-10, f"20 antisymmetric families, max |sum| {worst:.2e} (tol 1e-10)")


@pytest.mark.slow
def test_criterion_5_extraction_roundtrip():
    worst_dev = worst_agree = 0.0
    worst_time = 0.0
    radii = radial_grid(64)
    for trial in range(20):
        u = random_field(2, 6, F2, seed=3000 + trial)
        t0 = time.perf_counter()
        grid = sample_magnitude(u, radii, 40, dps=40)
        data_l, _ = extract_magnitude_data(grid, 2, 6, method="lstsq")
        data_t, _ = extract_magnitude_data(grid, 2, 6, method="taylor")
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        truth = magnitude_coeffs(u, data_l.grid)
        scale = 1.0 + truth.max_abs()
        worst_dev = max(worst_dev, truth.deviation(data_l) / scale)
        worst_agree = max(worst_agree, data_l.deviation(data_t) / scale)
    ok = worst_dev <= 1e-6 and worst_agree <= 1e-6 and worst_time < 10.0
    _report(
        5,
        ok,
        f"20 fields M=6 grid 64x40: roundtrip dev {worst_dev:.2e} (tol 1e-6), "
        f"method agreement {worst_agree:.2e} (tol 1e-6), worst per-field time "
        f"{worst_time:.2f}s (< 10s)",
    )


def _criterion6_fields():
    fields = []
    for i in range(30):
        fields.append(random_field(2, 2 + i % 4, F2, seed=4000 + i, zero_mean=True))
    for i in range(30):
        fields.append(random_field(2, 2 + i % 4, F2, seed=4100 + i))
    for i in range(25):
        fields.append(random_field(2, 2 + i % 4, F2, seed=4200 + i, all_r=True))
    rng = np.random.default_rng(4321)
    for i in range(15):
        M = 1 + i % 4
        u = HerglotzField.zero(2, M, F2)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        if i % 2:
            u.coeffs[M][0] = c  # one-sided single mode
        else:
            rho, chi, th = abs(c) + 0.3, rng.uniform(0, 6.28), rng.uniform(0, 6.28)
            u.coeffs[M][0] = rho * np.exp(1j * (chi + th))
            u.coeffs[M][1] = rho * np.exp(1j * (chi - th))
        fields.append(u)
    return fields


def test_criterion_6_full_2d_retrieval():
    fields = _criterion6_fields()
    assert len(fields) == 100
    successes = 0
    worst_residual = 0.0
    for u in fields:
        data = magnitude_coeffs(u)
        result = retrieve_2d(data)
        te = trivially_equivalent(result.field, u, tol=1e-7)
        if te.verdict != "Inequivalent":
            successes += 1
        worst_residual = max(worst_residual, result.residual)
    ok = successes == 100 and worst_residual <= 1e-8
    _report(
        6,
        ok,
        f"retrieve_2d round trips {successes}/100 equivalent, "
        f"worst forward residual {worst_residual:.2e} (tol 1e-8)",
    )


def test_criterion_7_negative_control():
    rng = np.random.default_rng(99)
    flips = 0
    for trial in range(100):
        M = 2 + trial % 4
        u = random_field(2, M, F2, seed=5000 + trial)
        v = u.copy()
        m = int(rng.integers(0, M + 1))
        j = int(rng.integers(0, len(v.coeffs[m])))
        v.coeffs[m][j] += 1e-3 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if not equal_magnitude(u, v):
            flips += 1
    _report(7, flips >= 99, f"perturbation detected in {flips}/100 trials (need >= 99)")


def test_criterion_8_d3_special_cases():
    mean_ok = 0
    for i in range(50):
        basis = P3 if i % 2 else Z3
        M = 2 + i % 3
        u = random_field(3, M, basis, seed=6000 + i)
        result = retrieve_3d_mean(magnitude_coeffs(u), basis)
        te = trivially_equivalent(result.field, u, tol=1e-6)
        if te.verdict != "Inequivalent":
            mean_ok += 1
    sparse_ok = 0
    for i in range(50):
        M = 2 + i % 3
        u = random_field(3, M, Z3, seed=6100 + i, sparse=True, zonal=(i % 3 == 0))
        result = retrieve_3d_sparse(magnitude_coeffs(u), Z3)
        te = trivially_equivalent(result.field, u, tol=1e-6)
        if te.verdict != "Inequivalent":
            sparse_ok += 1
    sign_ok = 0
    for i in range(50):
        u = random_field(3, 2 + i % 3, P3, seed=6200 + i, real=True)
        planted = 1 if i % 2 else -1
        if retrieve_3d_real(u, u.scaled(planted)) == planted:
            sign_ok += 1
    ok = mean_ok == 50 and sparse_ok == 50 and sign_ok == 50
    _report(
        8,
        ok,
        f"mean {mean_ok}/50, sparse {sparse_ok}/50, real-sign {sign_ok}/50 "
        "round trips in class {u, conj u}",
    )


def test_criterion_9_support_verifier():
    worst = 0.0
    checked = 0
    for i in range(30):  # 2-D pairs as produced by criterion 6
        u = random_field(2, 2 + i % 4, F2, seed=4000 + i, zero_mean=(i % 2 == 0))
        result = retrieve_2d(magnitude_coeffs(u))
        v = result.field
        for m in range(max(u.max_degree, v.max_degree) + 1):
            worst = max(worst, abs(degree_power(u, m) - degree_power(v, m)))
            checked += 1
    for i in range(20):  # 3-D pairs as produced by criterion 8
        basis = P3 if i % 2 else Z3
        u = random_field(3, 2 + i % 3, basis, seed=6000 + i)
        result = retrieve_3d_mean(magnitude_coeffs(u), basis)
        for m in range(u.max_degree + 1):
            worst = max(worst, abs(degree_power(u, m) - degree_power(result.field, m)))
            checked += 1
    _report(
        9,
        worst <= 1e-9,
        f"per-degree powers agree on {checked} degree checks, worst dev {worst:.2e} "
        "(tol 1e-9)",
    )


@pytest.mark.slow
def test_criterion_10_cli_pipeline(tmp_path):
    # the stages are fresh interpreters: give them this checkout's sources
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    failures = []
    for seed in range(1, 11):
        base = tmp_path / f"s{seed}"
        base.mkdir()
        f, g, d, v = (str(base / n) for n in ("u.field", "u.grid", "u.data", "v.field"))
        cmds = [
            ["gen", "--dim", "2", "--max-degree", "3", "--seed", str(seed), "--out", f],
            ["sample", f, "--radial-nodes", "48", "--out", g],
            ["extract", g, "--max-degree", "3", "--out", d],
            ["retrieve", d, "--out", v],
            ["verify", f, v],
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "herglotz.cli", *cmd],
                capture_output=True,
                text=True,
                env=env,
            )
            if proc.returncode != 0:
                failures.append((seed, cmd[0], proc.returncode, proc.stderr[-200:]))
                break
        else:
            if "equal_magnitude=true" not in proc.stdout or "Inequivalent" in proc.stdout:
                failures.append((seed, "verdict", proc.stdout[:200], ""))
    _report(
        10,
        not failures,
        "CLI pipeline gen->sample->extract->retrieve->verify exits 0 with "
        f"equivalent verdicts for seeds 1-10{'' if not failures else ': ' + repr(failures[:2])}",
    )
