"""Text file formats: field descriptors, magnitude grids, magnitude data.

All numbers are serialized with 17 significant digits so that write/read
round trips are bit-faithful; writes are atomic (temp file + rename).
"""

import os
import tempfile

import numpy as np

from . import harmonics
from .field import HerglotzField, MagnitudeData, MagnitudeGrid, pair_frequencies
from .harmonics import BasisSpec, harmonic_dim, sphere_grid

FIELD_MAGIC = "herglotz-field 1"
DATA_MAGIC = "herglotz-magnitude-data 1"


class FileFormatError(ValueError):
    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-herglotz-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# field descriptor


def _basis_lines(basis: BasisSpec, max_degree: int):
    lines = [f"basis {basis.kind}", f"normalization {basis.normalization}"]
    if basis.kind == harmonics.ZONAL:
        for m in range(max_degree + 1):
            table = basis.poles_for(m)
            for j, pole in enumerate(table, start=1):
                coords = " ".join(_fmt(x) for x in pole)
                lines.append(f"pole {m} {j} {coords}")
    return lines


def field_to_text(u: HerglotzField) -> str:
    lines = [FIELD_MAGIC, f"dim {u.dim}", f"max_degree {u.max_degree}"]
    lines += _basis_lines(u.basis, u.max_degree)
    for m, vec in enumerate(u.coeffs):
        for j, c in enumerate(vec, start=1):
            lines.append(f"coeff {m} {j} {_fmt(c.real)} {_fmt(c.imag)}")
    return "\n".join(lines) + "\n"


def write_field(path: str, u: HerglotzField):
    atomic_write(path, field_to_text(u))


class _Parser:
    def __init__(self, text):
        self.rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            self.rows.append((i, s))

    def expect_magic(self, magic):
        if not self.rows or self.rows[0][1] != magic:
            line = self.rows[0][0] if self.rows else 1
            raise FileFormatError(f"expected header {magic!r}", line)
        self.rows = self.rows[1:]


def _parse_keyed(rows):
    for i, s in rows:
        parts = s.split()
        yield i, parts[0], parts[1:]


def _build_basis(kind, dim, normalization, poles, line=1):
    try:
        table = {}
        for m, entries in poles.items():
            n = harmonic_dim(dim, m)
            arr = np.zeros((n, dim))
            for j, vec in entries.items():
                arr[j - 1] = vec
            table[m] = arr
        return BasisSpec(kind, dim, normalization, table)
    except ValueError as e:
        raise FileFormatError(str(e), line)


def parse_field(text: str) -> HerglotzField:
    p = _Parser(text)
    p.expect_magic(FIELD_MAGIC)
    dim = max_degree = None
    kind = normalization = None
    poles: dict = {}
    entries = []
    for i, key, args in _parse_keyed(p.rows):
        try:
            if key == "dim":
                dim = int(args[0])
            elif key == "max_degree":
                max_degree = int(args[0])
            elif key == "basis":
                kind = args[0]
            elif key == "normalization":
                normalization = args[0]
            elif key == "pole":
                m, j = int(args[0]), int(args[1])
                poles.setdefault(m, {})[j] = [float(x) for x in args[2:]]
            elif key == "coeff":
                m, j = int(args[0]), int(args[1])
                entries.append((i, m, j, float(args[2]), float(args[3])))
            else:
                raise FileFormatError(f"unknown key {key!r}", i)
        except (IndexError, ValueError) as e:
            if isinstance(e, FileFormatError):
                raise
            raise FileFormatError(f"malformed {key!r} record: {e}", i)
    if dim is None or max_degree is None or kind is None:
        raise FileFormatError("missing dim / max_degree / basis header")
    basis = _build_basis(kind, dim, normalization or harmonics.RAW, poles)
    coeffs = [np.zeros(harmonic_dim(dim, m), dtype=complex) for m in range(max_degree + 1)]
    for i, m, j, re, im in entries:
        if not 0 <= m <= max_degree:
            raise FileFormatError(f"coefficient degree {m} out of range", i)
        if not 1 <= j <= harmonic_dim(dim, m):
            raise FileFormatError(f"coefficient index {j} out of range for degree {m}", i)
        coeffs[m][j - 1] = re + 1j * im
    return HerglotzField(dim, max_degree, basis, coeffs)


def read_field(path: str) -> HerglotzField:
    with open(path, encoding="utf-8") as fh:
        return parse_field(fh.read())


# --------------------------------------------------------------------------
# magnitude grid (delimited text)


def grid_to_text(g: MagnitudeGrid) -> str:
    lines = ["r,theta,value" if g.dim == 2 else "r,theta,phi,value"]
    vals = g.values
    if g.dim == 2:
        angles = g.grid.angles
        for i, r in enumerate(g.radii):
            for q, t in enumerate(angles):
                lines.append(f"{_fmt(r)},{_fmt(t)},{_fmt(vals[i, q])}")
    else:
        t = g.grid.polar_t
        naz = g.grid.azimuth_count
        polar = np.arccos(t)
        phis = 2 * np.pi * np.arange(naz) / naz
        for i, r in enumerate(g.radii):
            k = 0
            for th in polar:
                for ph in phis:
                    lines.append(f"{_fmt(r)},{_fmt(th)},{_fmt(ph)},{_fmt(vals[i, k])}")
                    k += 1
    return "\n".join(lines) + "\n"


def write_grid(path: str, g: MagnitudeGrid):
    atomic_write(path, grid_to_text(g))


def parse_grid(text: str) -> MagnitudeGrid:
    lines = text.splitlines()
    if not lines:
        raise FileFormatError("empty grid file")
    header = lines[0].strip()
    if header == "r,theta,value":
        dim = 2
    elif header == "r,theta,phi,value":
        dim = 3
    else:
        raise FileFormatError(f"unrecognized grid header {header!r}", 1)
    rows = []
    for i, raw in enumerate(lines[1:], start=2):
        s = raw.strip()
        if not s:
            continue
        parts = s.split(",")
        if len(parts) != dim + 1:
            raise FileFormatError(f"expected {dim + 1} fields, got {len(parts)}", i)
        try:
            rows.append([float(x) for x in parts])
        except ValueError as e:
            raise FileFormatError(f"bad number: {e}", i)
    if not rows:
        raise FileFormatError("grid file has no data rows")
    arr = np.array(rows)
    radii = []
    for r in arr[:, 0]:
        if not radii or r != radii[-1]:
            radii.append(r)
    radii = np.array(radii)
    n_nodes = len(arr) // len(radii)
    if len(arr) != n_nodes * len(radii):
        raise FileFormatError("grid rows do not factor into radii x angular nodes")
    values = arr[:, -1].reshape(len(radii), n_nodes)
    if dim == 2:
        angles = arr[:n_nodes, 1]
        grid = sphere_grid(2, n_nodes)
        if not np.allclose(np.sort(angles % (2 * np.pi)), grid.angles, atol=1e-9):
            grid = harmonics.SphereGrid(
                2,
                np.stack([np.cos(angles), np.sin(angles)], axis=1),
                np.full(n_nodes, 2 * np.pi / n_nodes),
                angles=angles,
            )
        return MagnitudeGrid(2, radii, grid, values)
    thetas = arr[:n_nodes, 1]
    npol = len(np.unique(np.round(thetas, 12)))
    if npol == 0 or n_nodes % npol:
        raise FileFormatError("d=3 grid nodes do not factor into polar x azimuth")
    grid = sphere_grid(3, npol)
    t_file = np.cos(thetas.reshape(npol, -1)[:, 0])
    if not np.allclose(np.sort(t_file), np.sort(grid.polar_t), atol=1e-9):
        raise FileFormatError("d=3 grid polar nodes are not the Gauss-Legendre nodes")
    return MagnitudeGrid(3, radii, grid, values)


def read_grid(path: str) -> MagnitudeGrid:
    with open(path, encoding="utf-8") as fh:
        return parse_grid(fh.read())


# --------------------------------------------------------------------------
# magnitude data


def data_to_text(data: MagnitudeData, basis: BasisSpec | None = None) -> str:
    if data.dim == 2:
        res = len(data.grid)
    else:
        res = len(data.grid.polar_t)
    lines = [DATA_MAGIC, f"dim {data.dim}", f"max_degree {data.max_degree}", f"grid {res}"]
    if basis is not None:
        lines += _basis_lines(basis, data.max_degree)
    for (m, n) in data.pairs():
        lines.append(f"pair {m} {n}")
        if data.dim == 2:
            for q, c in data.pair_fourier(m, n).items():
                lines.append(f"fourier {q} {_fmt(c.real)} {_fmt(c.imag)}")
        else:
            vals = " ".join(_fmt(v) for v in data.pair_samples(m, n))
            lines.append(f"samples {vals}")
    return "\n".join(lines) + "\n"


def write_data(path: str, data: MagnitudeData, basis: BasisSpec | None = None):
    atomic_write(path, data_to_text(data, basis))


def parse_data(text: str):
    """Returns (MagnitudeData, BasisSpec or None)."""
    p = _Parser(text)
    p.expect_magic(DATA_MAGIC)
    dim = max_degree = res = None
    kind = normalization = None
    poles: dict = {}
    pair = None
    fourier: dict = {}
    samples: dict = {}
    for i, key, args in _parse_keyed(p.rows):
        try:
            if key == "dim":
                dim = int(args[0])
            elif key == "max_degree":
                max_degree = int(args[0])
            elif key == "grid":
                res = int(args[0])
            elif key == "basis":
                kind = args[0]
            elif key == "normalization":
                normalization = args[0]
            elif key == "pole":
                m, j = int(args[0]), int(args[1])
                poles.setdefault(m, {})[j] = [float(x) for x in args[2:]]
            elif key == "pair":
                pair = (int(args[0]), int(args[1]))
                fourier.setdefault(pair, {})
            elif key == "fourier":
                if pair is None:
                    raise FileFormatError("fourier record before any pair", i)
                q = int(args[0])
                fourier[pair][q] = float(args[1]) + 1j * float(args[2])
            elif key == "samples":
                if pair is None:
                    raise FileFormatError("samples record before any pair", i)
                samples[pair] = np.array([float(x) for x in args])
            else:
                raise FileFormatError(f"unknown key {key!r}", i)
        except (IndexError, ValueError) as e:
            if isinstance(e, FileFormatError):
                raise
            raise FileFormatError(f"malformed {key!r} record: {e}", i)
    if dim is None or max_degree is None or res is None:
        raise FileFormatError("missing dim / max_degree / grid header")
    grid = sphere_grid(dim, res)
    M = max_degree
    for (m, n) in fourier:
        if not 0 <= m <= n <= M:
            raise FileFormatError(f"pair {m} {n} is not in 0 <= m <= n <= {M}")
    if dim == 2:
        table = np.zeros((M + 1, M + 1, 4 * M + 1), dtype=complex)
        for (m, n), tab in fourier.items():
            for q, c in tab.items():
                if q not in pair_frequencies(m, n):
                    raise FileFormatError(f"pair {m} {n} has no frequency {q}")
                table[m, n, q + 2 * M] = c
    else:
        table = np.zeros((M + 1, M + 1, len(grid)))
        for (m, n), vals in samples.items():
            if len(vals) != len(grid):
                raise FileFormatError(
                    f"pair {(m, n)} has {len(vals)} samples, grid has {len(grid)}"
                )
            table[m, n] = vals
    data = MagnitudeData(dim, grid, table)
    basis = None
    if kind is not None:
        basis = _build_basis(kind, dim, normalization or harmonics.RAW, poles)
    return data, basis


def read_data(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_data(fh.read())
