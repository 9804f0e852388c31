import numpy as np
import pytest

from herglotz import fileio, specfun
from herglotz.cli import main
from herglotz.extract import extract_magnitude_data, radial_grid
from herglotz.field import (
    HerglotzField,
    MagnitudeData,
    magnitude_coeffs,
    random_field,
    sample_magnitude,
    trivially_equivalent,
)
from herglotz.fileio import FileFormatError
from herglotz.harmonics import BasisSpec, fourier2d_basis, sphere_grid
from herglotz.retrieve import retrieve_2d, retrieve_3d_mean


def run(args):
    return main(args)


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.field"
    b = tmp_path / "b.field"
    assert run(["gen", "--dim", "2", "--max-degree", "3", "--seed", "42", "--out", str(a)]) == 0
    assert run(["gen", "--dim", "2", "--max-degree", "3", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_real_and_sparse_flags(tmp_path):
    p = tmp_path / "r.field"
    run(["gen", "--dim", "2", "--max-degree", "3", "--seed", "1", "--real", "--out", str(p)])
    u = fileio.read_field(str(p))
    for m in range(1, 4):
        assert u.coeffs[m][1] == pytest.approx(np.conj(u.coeffs[m][0]))
    run(["gen", "--dim", "3", "--basis", "zonal", "--max-degree", "3", "--seed", "1",
         "--sparse", "--out", str(p)])
    u = fileio.read_field(str(p))
    for vec in u.coeffs:
        assert np.count_nonzero(vec) <= 1


def test_sample_header_and_zero_field(tmp_path):
    f = tmp_path / "z.field"
    g = tmp_path / "z.grid"
    run(["gen", "--dim", "2", "--max-degree", "2", "--seed", "3", "--out", str(f)])
    u = fileio.read_field(str(f))
    for vec in u.coeffs:
        vec[:] = 0
    fileio.write_field(str(f), u)
    assert run(["sample", str(f), "--radial-nodes", "8", "--out", str(g)]) == 0
    lines = g.read_text().splitlines()
    assert lines[0] == "r,theta,value"
    vals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(abs(v) for v in vals) == 0.0


def test_pipeline_roundtrip(tmp_path, capsys):
    f = tmp_path / "u.field"
    g = tmp_path / "u.grid"
    d = tmp_path / "u.data"
    v = tmp_path / "v.field"
    assert run(["gen", "--dim", "2", "--max-degree", "3", "--seed", "7", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--radial-nodes", "48", "--out", str(g)]) == 0
    assert run(["extract", str(g), "--max-degree", "3", "--out", str(d)]) == 0
    assert run(["retrieve", str(d), "--out", str(v)]) == 0
    capsys.readouterr()
    assert run(["verify", str(f), str(v)]) == 0
    out = capsys.readouterr().out
    assert "equal_magnitude=true" in out
    assert "equivalence=" in out and "Inequivalent" not in out


def test_grid_roundtrip_bit_faithful(tmp_path):
    fields = [(random_field(2, 3, fourier2d_basis(), seed=9), 9),
              (random_field(4, 2, BasisSpec("zonal", 4), seed=9, zonal=True), 4)]
    for u, angular in fields:
        g = sample_magnitude(u, radial_grid(12), angular)
        p = tmp_path / "g.grid"
        fileio.write_grid(str(p), g)
        back = fileio.read_grid(str(p))
        assert back.dim == u.dim and len(back.grid) == len(g.grid)
        assert np.array_equal(back.radii, g.radii)
        assert np.array_equal(back.values, g.values)
        fileio.write_grid(str(p), back)
        again = fileio.read_grid(str(p))
        assert np.array_equal(again.values, back.values)


@pytest.mark.parametrize("res", range(1, 9))
def test_d3_grid_angles_keep_their_explicit_construction(res):
    # polar angles of the Gauss-Legendre nodes (outer) crossed with 2 res
    # uniform azimuths (inner), as the d = 3 grid files have always been written
    grid = sphere_grid(3, res)
    phis = 2 * np.pi * np.arange(2 * res) / (2 * res)
    polar = np.arccos(grid.polar_t)
    explicit = np.column_stack([np.repeat(polar, 2 * res), np.tile(phis, res)])
    assert np.array_equal(fileio._grid_angles(grid), explicit)


@pytest.mark.parametrize("dim, basis, angular", [
    (2, fourier2d_basis(), 17), (3, BasisSpec("zonal", 3), 12), (4, BasisSpec("zonal", 4), 6)],
    ids=["d2", "d3", "d4"])
def test_grid_reader_converts_as_float_does_per_row(dim, basis, angular):
    u = random_field(dim, 3, basis, seed=8, zonal=dim > 2)
    text = fileio.grid_to_text(sample_magnitude(u, radial_grid(20), angular))
    rows = np.array([[float(x) for x in s.split(",")] for s in text.splitlines()[1:]])
    n = len(sphere_grid(dim, angular))
    g = fileio.parse_grid(text)
    assert np.array_equal(g.radii, rows[::n, 0])
    assert np.array_equal(g.values.ravel(), rows[:, -1])
    # lines numpy refuses but the per-row path reads: a number float() takes
    # and a line of spaces
    lines = text.splitlines()
    r, *rest = lines[5].split(",")
    lines[5] = ",".join([r[:3] + "_" + r[3:]] + rest)
    for edit in (lines, lines[:3] + ["  "] + lines[3:]):
        slow = fileio.parse_grid("\n".join(edit) + "\n")
        assert np.array_equal(slow.radii, g.radii) and np.array_equal(slow.values, g.values)


def test_field_file_roundtrip_and_errors(tmp_path):
    u = random_field(3, 2, BasisSpec("zonal", 3), seed=4)
    p = tmp_path / "u.field"
    fileio.write_field(str(p), u)
    back = fileio.read_field(str(p))
    assert back.dim == 3 and back.max_degree == 2
    for a, b in zip(u.coeffs, back.coeffs):
        assert np.array_equal(a, b)
    text = p.read_text().splitlines()
    target = next(i for i, s in enumerate(text) if s.startswith("coeff"))
    text[target] = "coeff 0 9 1.0 0.0"
    bad = tmp_path / "bad.field"
    bad.write_text("\n".join(text) + "\n")
    with pytest.raises(FileFormatError) as exc:
        fileio.read_field(str(bad))
    assert f"line {target + 1}" in str(exc.value)


def test_field_file_keeps_a_negative_zero_imaginary_part(tmp_path):
    u = HerglotzField.zero(2, 1, fourier2d_basis())
    u.coeffs[0][0] = complex(1.0, -0.0)
    text = fileio.field_to_text(u)
    assert "coeff 0 1 1 -0\n" in text
    assert fileio.field_to_text(fileio.parse_field(text)) == text


def test_data_file_roundtrip(tmp_path):
    u = random_field(2, 3, fourier2d_basis(), seed=5)
    data = magnitude_coeffs(u)
    p = tmp_path / "u.data"
    fileio.write_data(str(p), data)
    back, basis = fileio.read_data(str(p))
    assert basis is None
    assert back.max_degree == 3
    assert data.deviation(back) < 1e-15
    # data of another degree is refused, not zero-padded to the larger one
    lower = magnitude_coeffs(random_field(2, 2, fourier2d_basis(), seed=5))
    for compare in (data.deviation, data.subtract):
        with pytest.raises(ValueError, match="degrees differ: 3 and 2"):
            compare(lower)


def test_data_file_rejects_impossible_records():
    text = fileio.data_to_text(magnitude_coeffs(random_field(2, 2, fourier2d_basis(), seed=5)))
    for old, bad in (("pair 1 2", "pair 2 1"), ("pair 1 2", "pair 1 3"), ("fourier 3 ", "fourier 4 ")):
        with pytest.raises(FileFormatError):
            fileio.parse_data(text.replace(old, bad))


@pytest.mark.parametrize("dim", [2, 3])
def test_extracted_data_survives_its_file(dim):
    # in-memory extraction and its file round trip are the same data, bit for bit
    if dim == 2:
        basis, M = fourier2d_basis(), 3
        u = random_field(2, M, basis, seed=3)
        g = sample_magnitude(u, radial_grid(48), 4 * M + 5)
        retrieve = retrieve_2d
    else:
        basis, M = BasisSpec("zonal", 3), 4
        u = random_field(3, M, basis, seed=3, zonal=True)
        g = sample_magnitude(u, radial_grid(48), 2 * M + 4)
        retrieve = lambda data: retrieve_3d_mean(data, basis)  # noqa: E731
    data, _ = extract_magnitude_data(g, dim, M)
    text = fileio.data_to_text(data, None if dim == 2 else basis)
    back, back_basis = fileio.parse_data(text)
    assert np.array_equal(back.table, data.table)
    for pair in data.pairs():
        assert np.array_equal(back.pair_samples(*pair), data.pair_samples(*pair))
    assert fileio.data_to_text(back, back_basis) == text
    for a, b in zip(retrieve(data).field.coeffs, retrieve(back).field.coeffs):
        assert np.array_equal(a, b)


def test_retrieve_exit_codes(tmp_path, capsys):
    f = tmp_path / "u.field"
    g = tmp_path / "u.grid"
    d = tmp_path / "u.data"
    run(["gen", "--dim", "2", "--max-degree", "3", "--seed", "11", "--zero-mean",
         "--out", str(f)])
    run(["sample", str(f), "--out", str(g)])
    run(["extract", str(g), "--max-degree", "3", "--out", str(d)])
    # mean branch on zero-mean data: branch not applicable
    assert run(["retrieve", str(d), "--branch", "mean", "--out", str(tmp_path / "x")]) == 3
    # hand-corrupted data: inconsistent, exit 2
    lines = d.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("fourier 2 "):
            parts = line.split()
            parts[2] = repr(float(parts[2]) + 0.5)
            lines[i] = " ".join(parts)
            break
    bad = tmp_path / "bad.data"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["retrieve", str(bad), "--out", str(tmp_path / "y")]) == 2
    # unparsable file: exit 1
    junk = tmp_path / "junk.data"
    junk.write_text("not a data file\n")
    assert run(["retrieve", str(junk), "--out", str(tmp_path / "z")]) == 1
    capsys.readouterr()


# exit codes of `retrieve --branch B` on exact data with a mean and without;
# the d = 3 field without a mean is sparse, so one branch applies to it
_BRANCH_EXITS = {
    (2, "auto"): (0, 0), (2, "mean"): (0, 3), (2, "sparse"): (3, 3), (2, "real"): (2, 2),
    (3, "auto"): (0, 0), (3, "mean"): (0, 3), (3, "sparse"): (3, 0), (3, "real"): (2, 2),
}


@pytest.mark.parametrize("branch", ["auto", "mean", "sparse", "real"])
@pytest.mark.parametrize("dim", [2, 3])
def test_retrieve_branch_table(tmp_path, capsys, dim, branch):
    basis = fourier2d_basis() if dim == 2 else BasisSpec("zonal", 3)
    for zero_mean, code in zip((False, True), _BRANCH_EXITS[dim, branch]):
        u = random_field(dim, 3, basis, seed=11, zero_mean=zero_mean,
                         sparse=zero_mean and dim == 3)
        d, out, auto = tmp_path / "u.data", tmp_path / "u.field", tmp_path / "auto.field"
        fileio.write_data(str(d), magnitude_coeffs(u), None if dim == 2 else basis)
        capsys.readouterr()
        assert run(["retrieve", str(d), "--branch", branch, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if dim == 2 and branch == "sparse":
            assert err == "error: the sparse branch applies to d >= 3 data\n"
        if branch == "mean" and code == 3:
            assert err.startswith("error: vanishing mean")
        if branch == "mean" and code == 0:
            assert run(["retrieve", str(d), "--out", str(auto)]) == 0
            assert out.read_bytes() == auto.read_bytes()


def test_retrieve_auto_d3_reports_the_last_branch(tmp_path, capsys):
    # mean, sparse and real all reject the data; real's reason is the one printed
    basis = BasisSpec("zonal", 3)
    data = magnitude_coeffs(random_field(3, 3, basis, 1))
    table = data.table.copy()
    table[0, 1] *= 2
    d = tmp_path / "u.data"
    fileio.write_data(str(d), MagnitudeData(3, data.grid, table), basis)
    capsys.readouterr()
    assert run(["retrieve", str(d), "--out", str(tmp_path / "v.field")]) == 2
    err = capsys.readouterr().err
    assert "degree 1 cross data inconsistent with its diagonal" in err


def test_retrieve_on_a_grid_file_extracts_first(tmp_path, capsys):
    f, g, d = tmp_path / "u.field", tmp_path / "u.grid", tmp_path / "u.data"
    via_data, via_grid = tmp_path / "a.field", tmp_path / "b.field"
    assert run(["gen", "--dim", "2", "--max-degree", "3", "--seed", "7", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--out", str(g)]) == 0
    assert run(["extract", str(g), "--out", str(d)]) == 0
    assert run(["retrieve", str(d), "--out", str(via_data)]) == 0
    assert run(["retrieve", str(g), "--out", str(via_grid)]) == 0
    capsys.readouterr()
    assert via_grid.read_bytes() == via_data.read_bytes()


def test_retrieve_on_a_d3_grid_file_takes_the_data_files_basis(tmp_path, capsys):
    # a grid file names no basis: for d >= 3 retrieve builds the default one,
    # which extract writes into the data file
    f, g, d = tmp_path / "u.field", tmp_path / "u.grid", tmp_path / "u.data"
    via_data, via_grid = tmp_path / "a.field", tmp_path / "b.field"
    assert run(["gen", "--dim", "3", "--zonal", "--max-degree", "4", "--seed", "0",
                "--out", str(f)]) == 0
    assert run(["sample", str(f), "--out", str(g)]) == 0
    assert run(["extract", str(g), "--out", str(d)]) == 0
    assert run(["retrieve", str(d), "--out", str(via_data)]) == 0
    assert run(["retrieve", str(g), "--out", str(via_grid)]) == 0
    capsys.readouterr()
    assert via_grid.read_bytes() == via_data.read_bytes()


def test_verify_identity_output(tmp_path, capsys):
    f1 = tmp_path / "a.field"
    f2 = tmp_path / "b.field"
    u = random_field(2, 3, fourier2d_basis(), seed=12)
    fileio.write_field(str(f1), u)
    fileio.write_field(str(f2), u.scaled(1j))
    assert run(["verify", str(f1), str(f2)]) == 0
    out = capsys.readouterr().out
    assert "equal_magnitude=true" in out
    assert "equivalence=Identity" in out


def test_verify_d3_tolerance(tmp_path, capsys):
    f, g, d, v, w = (str(tmp_path / n) for n in ("u.field", "u.grid", "u.data", "v.field", "w.field"))
    gen = ["gen", "--dim", "3", "--zonal", "--max-degree", "4"]
    assert run([*gen, "--seed", "2", "--out", f]) == 0
    assert run(["sample", f, "--out", g]) == 0
    assert run(["extract", g, "--out", d]) == 0
    assert run(["retrieve", d, "--out", v]) == 0
    capsys.readouterr()
    # the sampled round trip leaves a coefficient residual near 1e-7
    assert run(["verify", f, v]) == 0
    out = capsys.readouterr().out
    assert "equal_magnitude=true" in out
    assert "equivalence=Inequivalent" not in out
    assert run([*gen, "--seed", "3", "--out", w]) == 0
    capsys.readouterr()
    assert run(["verify", f, w]) == 0
    assert "equivalence=Inequivalent" in capsys.readouterr().out


def test_verify_dimension_mismatch(tmp_path, capsys):
    f1 = tmp_path / "a.field"
    f2 = tmp_path / "b.field"
    fileio.write_field(str(f1), random_field(2, 2, fourier2d_basis(), seed=1))
    fileio.write_field(
        str(f2), random_field(3, 2, BasisSpec("zonal", 3), seed=1)
    )
    assert run(["verify", str(f1), str(f2)]) == 1
    capsys.readouterr()


def test_canon_collapses_gauge(tmp_path):
    f = tmp_path / "u.field"
    u = random_field(2, 3, fourier2d_basis(), seed=13)
    fileio.write_field(str(f), u.scaled(np.exp(0.9j)))
    c1 = tmp_path / "c1.field"
    run(["canon", str(f), "--out", str(c1)])
    fileio.write_field(str(f), u)
    c2 = tmp_path / "c2.field"
    run(["canon", str(f), "--out", str(c2)])
    a = fileio.read_field(str(c1))
    b = fileio.read_field(str(c2))
    te = trivially_equivalent(a, b)
    assert te.verdict != "Inequivalent"
    assert max(np.abs(x - y).max() for x, y in zip(a.coeffs, b.coeffs)) < 1e-13


_SPECFUN_CALLS = [
    (["bessel-j", "--nu", "1.5", "--r", "2.5"], lambda: specfun.bessel_j(1.5, 2.5)),
    (["bessel-bound", "--nu", "2.5", "--r", "3"], lambda: specfun.bessel_bound(2.5, 3.0)),
    (["gegenbauer", "--degree", "5", "--lam", "1.5", "--z", "0.3"],
     lambda: specfun.gegenbauer(5, 1.5, 0.3)),
    (["product-series", "--n", "2", "--m", "3", "--alpha", "0.5", "--r", "1.7"],
     lambda: specfun.bessel_product_series(2, 3, 0.5, 1.7)),
    (["product-integral", "--n", "1", "--m", "1", "--alpha", "0.5", "--r", "0.7"],
     lambda: specfun.bessel_product_integral(1, 1, 0.5, 0.7, 512)),
]


def test_specfun_subcommand(tmp_path, capsys):
    assert run(["specfun", "bessel-j", "--nu", "0", "--r", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "value=1"
    assert run(["specfun", "gegenbauer", "--degree", "2", "--lam", "1", "--z", "0.5"]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.strip().split("=")[1])) < 1e-14
    # every subcommand prints its library function's value to 17 digits
    for argv, value in _SPECFUN_CALLS:
        assert run(["specfun"] + argv) == 0
        assert capsys.readouterr().out == f"value={format(value(), '.17g')}\n"
    # a cancelled series (J_0(40) = 0.0074) and one that does not converge
    # are refused in one line, not printed or raised as a traceback
    for r, message in [("40", "J_0(40) is out of range of the double series: its "
                              "largest term 1.858e+15 times machine eps exceeds 1e-06"),
                       ("3000", "series did not converge within 256 terms")]:
        assert run(["specfun", "bessel-j", "--nu", "0", "--r", r]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    # the product series cancels too (it printed J_0(30)^2 as -9089.4)
    assert run(["specfun", "product-series", "--n", "0", "--m", "0", "--r", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: J_0(30) J_0(30) is out of range")
    assert captured.err.count("\n") == 1


_PIPELINES = {
    "d2": (["--dim", "2", "--max-degree", "3", "--seed", "4"], []),
    "d3": (["--dim", "3", "--zonal", "--max-degree", "3", "--seed", "5"], ["--radial-nodes", "32"]),
    "d4": (["--dim", "4", "--zonal", "--max-degree", "2", "--seed", "6"], ["--radial-nodes", "24"]),
}


def test_warm_tables_write_the_bytes_of_cold_ones(tmp_path, capsys, monkeypatch):
    # the cold pass starts from empty process tables (grids, basis values, pole
    # tables, p_alpha polynomials, Bessel rows); the warm pass reads what the
    # cold one left, in the other order. Each dimension has its own poles and
    # each stage its own radii (verify takes 16), so a table key that ignored
    # either would show.
    def pipeline(where, gen, sample):
        where.mkdir()
        monkeypatch.chdir(where)  # the reports name the files
        assert run(["gen", *gen, "--out", "u.field"]) == 0
        assert run(["sample", "u.field", *sample, "--out", "u.grid"]) == 0
        assert run(["extract", "u.grid", "--out", "u.data"]) == 0
        assert run(["retrieve", "u.data", "--out", "v.field"]) == 0
        assert run(["verify", "u.field", "v.field"]) == 0
        names = ("u.field", "u.grid", "u.data", "v.field")
        return [(where / n).read_bytes() for n in names] + [capsys.readouterr()]

    cold = {k: pipeline(tmp_path / f"cold-{k}", *v) for k, v in _PIPELINES.items()}
    for k, v in reversed(_PIPELINES.items()):
        assert pipeline(tmp_path / f"warm-{k}", *v) == cold[k], k


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--dim", "2"])  # missing --out
    assert exc.value.code == 1



def _edit(text, lineno, new):
    """Replace line ``lineno`` (1-based); an empty replacement keeps the numbering."""
    lines = text.splitlines()
    lines[lineno - 1] = new
    return "\n".join(lines) + "\n"


def _swap(text, a, b):
    lines = text.splitlines()
    lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
    return "\n".join(lines) + "\n"


_U3 = random_field(3, 1, BasisSpec("zonal", 3), seed=4)
_U2 = random_field(2, 1, fourier2d_basis(), seed=5)
_FIELD = fileio.field_to_text(_U3)
_DATA2 = fileio.data_to_text(magnitude_coeffs(_U2))
_DATA3 = fileio.data_to_text(magnitude_coeffs(_U3), _U3.basis)
_GRID2 = fileio.grid_to_text(sample_magnitude(_U2, radial_grid(2), 3))
_GRID3 = fileio.grid_to_text(sample_magnitude(_U3, radial_grid(2), 2))
_U4 = random_field(4, 1, BasisSpec("zonal", 4), seed=6, zonal=True)
_GRID4 = fileio.grid_to_text(sample_magnitude(_U4, radial_grid(1), 2))
_BROADCAST = "could not broadcast input array from shape (4,) into shape (3,)"


@pytest.mark.parametrize("lineno, new, message", [
    pytest.param(1, "herglotz-field 2", "line 1: expected header 'herglotz-field 1'", id="magic"),
    pytest.param(13, "colour red", "line 13: unknown key 'colour'", id="unknown-key"),
    pytest.param(13, "grid 8", "line 13: unknown key 'grid'", id="grid-record"),
    pytest.param(10, "coeff 0 1 x 0",
                 "line 10: malformed 'coeff' record: could not convert string to float: 'x'",
                 id="coeff-number"),
    pytest.param(10, "coeff 0 1 1.0", "line 10: malformed 'coeff' record: list index out of range",
                 id="coeff-short"),
    pytest.param(10, "coeff 0 9 1.0 0.0", "line 10: coefficient index 9 out of range for degree 0",
                 id="coeff-index"),
    pytest.param(7, "pole 1", "line 7: malformed 'pole' record: list index out of range",
                 id="pole-short"),
    pytest.param(2, "", "missing dim / max_degree / basis header", id="no-dim"),
    pytest.param(4, "", "missing dim / max_degree / basis header", id="no-basis"),
    pytest.param(4, "basis cubic", "line 4: unknown basis kind 'cubic'", id="basis-kind"),
    pytest.param(7, "pole 1 1 0 0 0 1", "line 7: " + _BROADCAST, id="pole-shape"),
    pytest.param(7, "pole 1 1 0 0 2", "line 7: pole table for degree 1 contains non-unit vectors",
                 id="pole-norm"),
    # the parent's reader let an IndexError out here
    pytest.param(7, "pole 1 4 0 0 1", "line 7: pole index 4 out of range for degree 1",
                 id="pole-index-high"),
    pytest.param(7, "pole 1 0 0 0 1", "line 7: pole index 0 out of range for degree 1",
                 id="pole-index-zero"),
    # the parent's reader called a missing pole a non-unit vector, and let a
    # repeated record overwrite the first
    pytest.param(8, "", "line 4: degree 1 has no pole 2", id="pole-missing"),
    pytest.param(8, "pole 1 1 0 0 1", "line 8: repeated pole 1 1", id="pole-repeated"),
    pytest.param(12, "coeff 1 1 0 0", "line 12: repeated coeff 1 1", id="coeff-repeated"),
    # the parent's reader filled in default poles for a degree without any
    # pole record, and took poles above max_degree
    pytest.param(6, "", "line 4: degree 0 has no pole 1", id="pole-degree-missing"),
    pytest.param(3, "max_degree 2", "line 4: degree 2 has no pole 1", id="pole-degree-short"),
    pytest.param(3, "max_degree 0", "line 7: pole degree 1 is outside 0..max_degree 0",
                 id="pole-degree-high"),
    pytest.param(6, "pole -1 1 0 0 1", "line 6: pole degree -1 is outside 0..max_degree 1",
                 id="pole-degree-negative"),
    # NaN compares false with every later check: a NaN coefficient gives a NaN grid
    pytest.param(10, "coeff 0 1 nan 0",
                 "line 10: malformed 'coeff' record: non-finite number 'nan'", id="coeff-nan"),
    pytest.param(7, "pole 1 1 0 0 inf",
                 "line 7: malformed 'pole' record: non-finite number 'inf'", id="pole-inf"),
])
def test_field_reader_errors(lineno, new, message):
    with pytest.raises(FileFormatError) as exc:
        fileio.parse_field(_edit(_FIELD, lineno, new))
    assert str(exc.value) == message


def test_field_reader_rejects_a_degree_without_poles():
    # degree-1 poles on the coordinate axes, not the default ones: without its
    # pole records the file must not read back against default_poles
    u = random_field(3, 1, BasisSpec("zonal", 3, poles={1: np.eye(3)}), seed=4)
    text = fileio.field_to_text(u)
    assert fileio.parse_field(text).basis.poles_for(1).tolist() == np.eye(3).tolist()
    kept = [line for line in text.splitlines() if not line.startswith("pole 1 ")]
    with pytest.raises(FileFormatError) as exc:
        fileio.parse_field("\n".join(kept) + "\n")
    assert str(exc.value) == "line 4: degree 1 has no pole 1"


@pytest.mark.parametrize("text, lineno, new, message", [
    pytest.param(_DATA2, 1, "herglotz-field 1",
                 "line 1: expected header 'herglotz-magnitude-data 1'", id="magic"),
    pytest.param(_DATA2, 13, "colour red", "line 13: unknown key 'colour'", id="unknown-key"),
    pytest.param(_DATA2, 13, "coeff 0 1 1.0 0.0", "line 13: unknown key 'coeff'",
                 id="coeff-record"),
    pytest.param(_DATA2, 6, "fourier 0 x 0",
                 "line 6: malformed 'fourier' record: could not convert string to float: 'x'",
                 id="fourier-number"),
    pytest.param(_DATA2, 6, "fourier 0 1.0",
                 "line 6: malformed 'fourier' record: list index out of range", id="fourier-short"),
    pytest.param(_DATA2, 7, "pair 0", "line 7: malformed 'pair' record: list index out of range",
                 id="pair-short"),
    pytest.param(_DATA2, 4, "", "missing dim / max_degree / grid header", id="no-grid"),
    pytest.param(_DATA2, 4, "grid 9.5",
                 "line 4: malformed 'grid' record: invalid literal for int() with base 10: '9.5'",
                 id="grid-number"),
    pytest.param(_DATA2, 5, "", "line 6: fourier record before any pair", id="fourier-first"),
    pytest.param(_DATA3, 11, "", "line 12: samples record before any pair", id="samples-first"),
    pytest.param(_DATA3, 12, "samples 1 x",
                 "line 12: malformed 'samples' record: could not convert string to float: 'x'",
                 id="samples-number"),
    pytest.param(_DATA3, 12, "samples 1 2", "pair (0, 0) has 2 samples, grid has 128",
                 id="samples-count"),
    pytest.param(_DATA3, 8, "pole 1", "line 8: malformed 'pole' record: list index out of range",
                 id="pole-short"),
    pytest.param(_DATA3, 8, "pole 1 1 0 0 0 1", "line 8: " + _BROADCAST, id="pole-shape"),
    # the parent's reader dropped these records, or filled the pair with zeros
    pytest.param(_DATA2, 6, "samples 1 2 3", "line 6: samples record in a d = 2 data file",
                 id="samples-in-d2"),
    pytest.param(_DATA3, 12, "fourier 0 1 0", "line 12: fourier record in a d = 3 data file",
                 id="fourier-in-d3"),
    pytest.param(_DATA3, 14, "", "line 13: pair 0 1 has no samples record", id="no-samples"),
    # the parent's reader reported these at line 1
    pytest.param(_DATA3, 5, "basis zonl", "line 5: unknown basis kind 'zonl'", id="basis-kind"),
    pytest.param(_DATA3, 6, "normalization unit", "line 6: unknown normalization 'unit'",
                 id="normalization-kind"),
    pytest.param(_DATA3, 6, "normalization orthonormal",
                 "line 6: unknown normalization 'orthonormal'", id="normalization-orthonormal"),
    pytest.param(_DATA3, 9, "pole 1 2 0 1 1",
                 "line 9: pole table for degree 1 contains non-unit vectors", id="pole-norm"),
    # the parent's reader let a repeated record overwrite the first, and read
    # a missing pair or Fourier coefficient as zeros
    pytest.param(_DATA3, 13, "samples 1 2", "line 13: repeated samples record for pair 0 0",
                 id="samples-repeated"),
    pytest.param(_DATA2, 9, "fourier -1 5 0", "line 9: repeated fourier -1 record for pair 0 1",
                 id="fourier-repeated"),
    pytest.param(_DATA2, 10, "pair 0 1", "line 10: repeated pair 0 1", id="pair-repeated"),
    pytest.param(_DATA2, 3, "max_degree 2",
                 "line 3: max_degree 2 needs pair 0 2, which the file lacks", id="pair-missing"),
    pytest.param(_DATA2, 6, "", "line 5: pair 0 0 has no fourier 0 record", id="no-fourier"),
    pytest.param(_DATA2, 12, "", "line 10: pair 1 1 has no fourier 0 record",
                 id="fourier-missing"),
    # the parent's reader filled in default poles for a degree without any
    # pole record, and took poles above max_degree
    pytest.param(_DATA3, 7, "", "line 5: degree 0 has no pole 1", id="pole-degree-missing"),
    pytest.param(_DATA3, 3, "max_degree 2", "line 5: degree 2 has no pole 1",
                 id="pole-degree-short"),
    pytest.param(_DATA3, 3, "max_degree 0", "line 8: pole degree 1 is outside 0..max_degree 0",
                 id="pole-degree-high"),
    # NaN compares false with every later check: retrieve would write a field from it
    pytest.param(_DATA2, 6, "fourier 0 nan 0",
                 "line 6: malformed 'fourier' record: non-finite number 'nan'", id="fourier-nan"),
    pytest.param(_DATA3, 12, "samples 1 -inf",
                 "line 12: malformed 'samples' record: non-finite number '-inf'",
                 id="samples-inf"),
])
def test_data_reader_errors(text, lineno, new, message):
    with pytest.raises(FileFormatError) as exc:
        fileio.parse_data(_edit(text, lineno, new))
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    pytest.param("", "empty grid file", id="empty"),
    pytest.param(_edit(_GRID2, 1, "r,value"), "line 1: unrecognized grid header 'r,value'",
                 id="header"),
    pytest.param(_edit(_GRID2, 3, "0.5,1.0"), "line 3: expected 3 fields, got 2", id="fields-d2"),
    pytest.param(_edit(_GRID3, 3, "0.5,1.0,2.0"), "line 3: expected 4 fields, got 3",
                 id="fields-d3"),
    pytest.param(_edit(_GRID2, 3, "0.5,x,1"),
                 "line 3: bad number: could not convert string to float: 'x'", id="number"),
    pytest.param("r,theta,value\n", "grid file has no data rows", id="no-rows"),
    pytest.param(_edit(_GRID2, 7, ""), "grid rows do not factor into radii x angular nodes",
                 id="factor"),
    # rows in another order than the grid layout; the parent's reader took them
    pytest.param(_swap(_GRID2, 3, 4),
                 "line 3: row is off the grid layout: expected r,theta = "
                 "0.18912427893638994,2.0943951023931953, "
                 "got 0.18912427893638994,4.1887902047863905", id="swap-d2"),
    pytest.param(_swap(_GRID3, 3, 7),
                 "line 3: row is off the grid layout: expected r,theta,phi = "
                 "0.18912427893638994,2.1862760354652839,1.5707963267948966, "
                 "got 0.18912427893638994,0.9553166181245093,1.5707963267948966", id="swap-d3"),
    # a NaN compares false with every tolerance, so it must be refused explicitly
    pytest.param(_edit(_GRID3, 3, "0.18912427893638994,2.1862760354652839,nan,1.0"),
                 "line 3: row is off the grid layout: expected r,theta,phi = "
                 "0.18912427893638994,2.1862760354652839,1.5707963267948966, "
                 "got 0.18912427893638994,2.1862760354652839,nan", id="nan-d3"),
    # NaN compares false with every later check: extract would write NaN data
    pytest.param(_edit(_GRID2, 3, _GRID2.splitlines()[2].rsplit(",", 1)[0] + ",nan"),
                 "line 3: non-finite value nan", id="value-nan"),
    # the first of the two psi blocks of a resolution-2 grid: 1 psi needs 2 nodes
    pytest.param("\n".join(_GRID4.splitlines()[:9]) + "\n",
                 "8 nodes per radius make no d = 4 grid", id="nodes-d4"),
])
def test_grid_reader_errors(text, message):
    with pytest.raises(FileFormatError) as exc:
        fileio.parse_grid(text)
    assert str(exc.value) == message


def test_swapped_grid_rows_exit_1(tmp_path, capsys):
    f, g, d = (tmp_path / n for n in ("u.field", "u.grid", "u.data"))
    assert run(["gen", "--dim", "2", "--max-degree", "3", "--seed", "7", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--radial-nodes", "24", "--out", str(g)]) == 0
    g.write_text(_swap(g.read_text(), 5, 6))
    capsys.readouterr()
    assert run(["extract", str(g), "--max-degree", "3", "--out", str(d)]) == 1
    assert capsys.readouterr().err.startswith("error: line 5: row is off the grid layout")
    assert not d.exists()


@pytest.mark.parametrize("flags", [[], ["--real"], ["--zero-mean"]],
                         ids=["generic", "real", "zero-mean"])
def test_d4_zonal_pipeline_roundtrip(tmp_path, capsys, flags):
    f, g, d, v = (tmp_path / n for n in ("u.field", "u.grid", "u.data", "v.field"))
    assert run(["gen", "--dim", "4", "--zonal", "--max-degree", "2", "--seed", "3", *flags,
                "--out", str(f)]) == 0
    assert run(["sample", str(f), "--radial-nodes", "24", "--out", str(g)]) == 0
    # 2 (2M + 4)^3 = 1024 nodes per radius: psi outer, then a d = 3 row
    lines = g.read_text().splitlines()
    assert lines[0] == "r,psi,theta,phi,value" and len(lines) == 1 + 24 * 1024
    assert run(["extract", str(g), "--out", str(d)]) == 0
    assert run(["retrieve", str(d), "--out", str(v)]) == 0
    capsys.readouterr()
    assert run(["verify", str(f), str(v)]) == 0
    out = capsys.readouterr().out
    assert "equal_magnitude=true" in out
    assert "equivalence=" in out and "Inequivalent" not in out


def test_extract_d3_nonzonal_exits_3(tmp_path, capsys):
    f, g, d = (tmp_path / n for n in ("u.field", "u.grid", "u.data"))
    assert run(["gen", "--dim", "3", "--max-degree", "2", "--seed", "1", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--radial-nodes", "12", "--out", str(g)]) == 0
    capsys.readouterr()
    assert run(["extract", str(g), "--out", str(d)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: d=3 samples are not zonal: azimuthal spread ")
    assert "only zonal d = 3 data" in err
    assert not d.exists()


def test_extract_truncated_degree_exits_2(tmp_path, capsys):
    # 48 radii cannot resolve degree 7 of this field: degree 6 misfits the
    # samples, and degree 7's design loses rank
    f, g, d = (tmp_path / n for n in ("u.field", "u.grid", "u.data"))
    assert run(["gen", "--dim", "2", "--max-degree", "7", "--seed", "7000", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--out", str(g)]) == 0
    capsys.readouterr()
    assert run(["extract", str(g), "--out", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree 7 unresolvable: the estimate is 6")
    assert not d.exists()


def test_extract_ill_conditioned_profile_exits_3(tmp_path, capsys):
    # 48 radii condition the degree-7 profile 6 at 1.4e12: the double solve is
    # not trusted, and no data is written
    f, g, d = (tmp_path / n for n in ("u.field", "u.grid", "u.data"))
    assert run(["gen", "--dim", "2", "--max-degree", "7", "--seed", "3", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--out", str(g)]) == 0
    capsys.readouterr()
    assert run(["extract", str(g), "--max-degree", "7", "--out", str(d)]) == 3
    err = capsys.readouterr().err
    assert err == ("error: rank-deficient unmixing system (condition estimate 1.38e+12); "
                   "colliding pairs: [(3, 3)]\n")
    assert not d.exists()


def _d3_two_radius_grid(tmp_path):
    f, g = tmp_path / "u.field", tmp_path / "u.grid"
    assert run(["gen", "--dim", "3", "--zonal", "--max-degree", "6", "--seed", "1",
                "--out", str(f)]) == 0
    assert run(["sample", str(f), "--radial-nodes", "2", "--out", str(g)]) == 0
    return g


def test_d3_rank_loss_exits_3(tmp_path, capsys):
    # 2 radii cannot determine the 28 pairs of a zonal M = 6 field
    g = _d3_two_radius_grid(tmp_path)
    d, v = tmp_path / "u.data", tmp_path / "v.field"
    for cmd in (["extract", str(g), "--out", str(d)], ["retrieve", str(g), "--out", str(v)]):
        capsys.readouterr()
        assert run([*cmd, "--max-degree", "6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: rank-deficient unmixing system")
        assert "colliding pairs: [(" in err
    assert not d.exists() and not v.exists()


def test_d3_truncated_estimate_exits_2(tmp_path, capsys):
    # on the same 2 radii the degree-6 components 11 and 12 fall below the
    # activity threshold, so the bandwidth estimate is 5; component 11 still
    # holds content far above rounding
    g = _d3_two_radius_grid(tmp_path)
    d, v = tmp_path / "u.data", tmp_path / "v.field"
    for cmd in (["extract", str(g), "--out", str(d)], ["retrieve", str(g), "--out", str(v)]):
        capsys.readouterr()
        assert run(cmd) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: degree 6 unresolvable: the estimate is 5, but angular "
                              "component 11 holds ")
        assert "above the rounding floor" in err
    assert not d.exists() and not v.exists()


@pytest.mark.parametrize("kind,flags", [("zonal", {"zonal": True}), ("palpha", {})])
def test_d4_data_file_rewrites_byte_identical(tmp_path, kind, flags):
    u = random_field(4, 2, BasisSpec(kind, 4), seed=5, **flags)
    p, q = tmp_path / "a.data", tmp_path / "b.data"
    fileio.write_data(str(p), magnitude_coeffs(u), u.basis)
    data, basis = fileio.read_data(str(p))
    assert data.dim == 4 and basis.kind == kind
    fileio.write_data(str(q), data, basis)
    assert p.read_bytes() == q.read_bytes()


@pytest.mark.parametrize("flags", [["--zonal"], ["--basis", "palpha"]])
def test_d4_data_file_retrieves_an_equivalent_field(tmp_path, capsys, flags):
    f, d, v = (tmp_path / n for n in ("u.field", "u.data", "v.field"))
    assert run(["gen", "--dim", "4", "--max-degree", "2", "--seed", "5", *flags,
                "--out", str(f)]) == 0
    u = fileio.read_field(str(f))
    fileio.write_data(str(d), magnitude_coeffs(u), u.basis)
    assert run(["retrieve", str(d), "--out", str(v)]) == 0
    capsys.readouterr()
    assert run(["verify", str(f), str(v)]) == 0
    out = capsys.readouterr().out
    assert "equal_magnitude=true" in out
    assert "equivalence=" in out and "Inequivalent" not in out


@pytest.mark.parametrize("args,message", [
    (["--max-degree", "-1"], "error: max_degree must be >= 0, got -1\n"),
    (["--dim", "1"], "error: dimension d = 1 is below 2\n"),
    (["--dim", "1", "--basis", "fourier2d"], "error: dimension d = 1 is below 2\n"),
])
def test_gen_rejects_bad_degree_and_dimension(tmp_path, capsys, args, message):
    f = tmp_path / "u.field"
    assert run(["gen", *args, "--out", str(f)]) == 1
    assert capsys.readouterr().err == message
    assert not f.exists()


@pytest.mark.parametrize("command", ["extract", "retrieve"])
def test_negative_degree_on_a_grid_exits_1(tmp_path, capsys, command):
    f, g, out = (tmp_path / n for n in ("u.field", "u.grid", "out"))
    assert run(["gen", "--dim", "3", "--zonal", "--max-degree", "2", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--radial-nodes", "12", "--out", str(g)]) == 0
    capsys.readouterr()
    assert run([command, str(g), "--max-degree", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: max_degree must be >= 0, got -1\n"
    assert not out.exists()


def test_extract_names_the_joint_solve_in_its_warning(tmp_path, capsys):
    # degree 4 cannot fit a degree-6 zonal field: the joint residual is large,
    # and the components above 8 refuse the given degree
    f, g, d, v = (tmp_path / n for n in ("u.field", "u.grid", "u.data", "v.field"))
    assert run(["gen", "--dim", "3", "--zonal", "--max-degree", "6", "--seed", "0",
                "--out", str(f)]) == 0
    assert run(["sample", str(f), "--radial-nodes", "20", "--out", str(g)]) == 0
    for cmd in (["extract", str(g), "--out", str(d)], ["retrieve", str(g), "--out", str(v)]):
        capsys.readouterr()
        assert run([*cmd, "--max-degree", "4"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: joint solve: residual ")
        assert not any("component -1" in line for line in err)
        assert err[-1].startswith("error: degree 5 unresolvable: max_degree is 4, but angular "
                                  "component 9 holds ")
    assert not d.exists() and not v.exists()


@pytest.mark.parametrize("command", ["extract", "retrieve"])
def test_given_d2_degree_below_the_content_exits_2(tmp_path, capsys, command):
    f, g, out = (tmp_path / n for n in ("u.field", "u.grid", "out"))
    assert run(["gen", "--max-degree", "5", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--out", str(g)]) == 0
    capsys.readouterr()
    assert run([command, str(g), "--max-degree", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: degree 4 unresolvable: max_degree is 3, but angular "
                              "component 7 holds ")
    assert "above the rounding floor" in err[-1]
    assert not out.exists()


@pytest.mark.parametrize("angles, degree", [(9, 3), (11, 3), (12, 3), (13, None)])
def test_d2_extraction_needs_4m_plus_1_angles(tmp_path, capsys, angles, degree):
    # 12 angles alias the +-6 frequencies of a degree-3 field, and its residual stays
    # at 3e-15; on 11 angles the degree search starts at 3, which they cannot
    # resolve, and on 9 it reaches 3 after degree 2 misfits
    f, g, d = (tmp_path / n for n in ("u.field", "u.grid", "u.data"))
    assert run(["gen", "--max-degree", "3", "--seed", "1", "--out", str(f)]) == 0
    assert run(["sample", str(f), "--angular-nodes", str(angles), "--out", str(g)]) == 0
    capsys.readouterr()
    code = run(["extract", str(g), "--out", str(d)])
    if degree is None:
        assert code == 0 and "max_degree=3" in capsys.readouterr().out
        return
    assert code == 2 and not d.exists()
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: degree {degree} unresolvable: its frequencies up to {2 * degree} need at "
        f"least {4 * degree + 1} angles, the grid has {angles}"
    )


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_retrieve_refuses_an_invalid_tol(tmp_path, capsys, tol):
    # nan and -1 once exited 2 with "inconsistent data" on consistent data, and
    # inf wrote whatever the first branch returned with exit 0
    f, g, d, out = (str(tmp_path / name) for name in ("u.field", "u.grid", "u.data", "r.field"))
    assert run(["gen", "--max-degree", "3", "--seed", "1", "--out", f]) == 0
    assert run(["sample", f, "--out", g]) == 0
    assert run(["extract", g, "--out", d]) == 0
    capsys.readouterr()
    assert run(["retrieve", d, "--out", out, f"--tol={tol}"]) == 1
    assert f"accept_tol must be finite and nonnegative, got {float(tol)}" in capsys.readouterr().err
    assert not (tmp_path / "r.field").exists()


def test_retrieve_tol_judges_the_all_zero_branch(tmp_path, capsys):
    # the all-zero branch once ignored --tol and exited 0 at --tol 1e-13
    d, out = str(tmp_path / "u.data"), str(tmp_path / "r.field")
    fileio.write_data(d, magnitude_coeffs(random_field(2, 2, fourier2d_basis(), 1).scaled(3e-6)))
    assert run(["retrieve", d, "--out", out, "--tol", "1e-13"]) == 2
    assert "exceeds tolerance (residual 1.272e-11)" in capsys.readouterr().err
    assert not (tmp_path / "r.field").exists()
    assert run(["retrieve", d, "--out", out]) == 0
    assert "branch=zero" in capsys.readouterr().out.splitlines()
