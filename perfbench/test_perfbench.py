"""Tests of the benchmark's checker and tracer against the herglotz package.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import checker
import run
import tracer
import workloads
from herglotz import extract, fileio
from herglotz.field import (
    conjugate_field,
    magnitude_coeffs,
    random_field,
    sample_magnitude,
)
from herglotz.harmonics import BasisSpec, fourier2d_basis


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family", [{}, {"zero_mean": True}, {"all_r": True}])
def test_fourier2d_reference_matches_magnitude_coeffs(seed, family):
    u = random_field(2, 6, fourier2d_basis(), seed, **family)
    ref = checker.fourier2d_reference(u.coeffs)
    assert checker.fourier2d_deviation(magnitude_coeffs(u).fourier, ref) < 1e-13


@pytest.mark.parametrize("dim,M", [(3, 5), (4, 3)])
def test_zonal_reference_matches_magnitude_coeffs(dim, M):
    for seed in range(3):
        u = random_field(dim, M, BasisSpec("zonal", dim), seed)
        data = magnitude_coeffs(u)
        ref = checker.zonal_reference(u.coeffs, u.basis.poles, dim, data.grid.nodes)
        assert checker.samples_deviation(data.samples, ref) < 1e-13


def test_sphere3_nodes_are_the_data_grid():
    u = random_field(3, 4, BasisSpec("zonal", 3), 1, zonal=True)
    data = magnitude_coeffs(u)
    nodes = checker.sphere3_nodes(len(data.grid.polar_t))
    assert np.abs(nodes - data.grid.nodes).max() < 1e-14


@pytest.mark.parametrize("kind,dim", [("fourier2d", 2), ("zonal", 3), ("palpha", 3)])
def test_coefficient_error_accepts_trivial_twins(kind, dim):
    u = random_field(dim, 4, BasisSpec(kind, dim), 7)
    c = np.exp(0.7j)
    for twin in (u.scaled(c), conjugate_field(u).scaled(c)):
        assert checker.coefficient_error(u.coeffs, twin.coeffs, kind) < 1e-15


@pytest.mark.parametrize("kind,dim", [("fourier2d", 2), ("zonal", 3), ("palpha", 3)])
def test_negative_control_fails_the_check(kind, dim):
    for seed in range(5):
        u = random_field(dim, 4, BasisSpec(kind, dim), seed, real=kind != "fourier2d")
        rotated = checker.rotate_one_mode(u.coeffs)
        assert checker.coefficient_error(u.coeffs, rotated, kind) > 100 * checker.PASS_TOL


def test_file_readers_match_herglotz_files(tmp_path):
    u = random_field(3, 4, BasisSpec("zonal", 3), 2, zonal=True)
    fileio.write_field(str(tmp_path / "u.field"), u)
    parsed = checker.read_field_file(str(tmp_path / "u.field"))
    assert all(np.array_equal(a, b) for a, b in zip(u.coeffs, parsed["coeffs"]))
    assert checker.poles_match(parsed, parsed)
    moved = dict(parsed, poles={m: -p for m, p in parsed["poles"].items()})
    assert not checker.poles_match(parsed, moved)

    data = magnitude_coeffs(u)
    fileio.write_data(str(tmp_path / "u.data"), data, u.basis)
    read = checker.read_data_file(str(tmp_path / "u.data"))
    ref = checker.zonal_reference(parsed["coeffs"], parsed["poles"], 3,
                                  checker.sphere3_nodes(read["grid"]))
    assert checker.samples_deviation(read["samples"], ref) < 1e-13


def test_tracer_rebinds_every_name_and_restores():
    import herglotz.field
    import herglotz.specfun

    original = herglotz.specfun.bessel_j_mp
    tr = tracer.Tracer()
    tr.install()
    try:
        for module in (herglotz.specfun, herglotz.field, extract):
            assert module.bessel_j_mp is not original
            assert module.bessel_j_mp.__wrapped__ is original
    finally:
        tr.restore()
    for module in (herglotz.specfun, herglotz.field, extract):
        assert module.bessel_j_mp is original


def test_tracer_counts_duplicate_bessel_work():
    # one lstsq extraction of a d = 2, M = 6 field on a 64 x 40 grid: the 13
    # profiles with pairs (of 20) recompute the same 7 orders x 64 radii
    u = random_field(2, 6, fourier2d_basis(), 3000)
    grid = sample_magnitude(u, extract.radial_grid(64), 40)
    tr = tracer.Tracer()
    tr.install()
    try:
        extract.extract_magnitude_data(grid, 2, 6, method="lstsq")
    finally:
        tr.restore()
    tr.new_field()
    assert tr.calls["specfun.bessel_j_mp"] == 4480
    assert tr.distinct["specfun.bessel_j_mp"] == 448
    assert tr.calls["extract.radial_unmix"] == 20
    assert tr.calls["extract.radial_unmix.lstsq"] == 20
    assert tr.self_s["extract.radial_unmix.lstsq"] < tr.self_s["specfun.bessel_j_mp"]


def test_tracer_counts_repeated_unmixing_of_degree_estimation():
    # estimate_max_degree unmixes all 13 profiles once more before the
    # extraction proper: 26 radial_unmix calls where 13 would do
    u = random_field(2, 5, fourier2d_basis(), 500)
    grid = sample_magnitude(u, extract.radial_grid(48), 25)
    tr = tracer.Tracer()
    tr.install()
    try:
        data, _ = extract.extract_magnitude_data(grid, 2)
    finally:
        tr.restore()
    assert data.max_degree == 5
    assert tr.calls["extract.radial_unmix"] == 26
    assert tr.calls["extract.angular_decompose"] == 2


def test_traced_run_reports_every_per_layer_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    reported = run.per_module(tracer.Tracer(), workloads.Exact(), 1, 0.2)
    assert set(reported) == names
