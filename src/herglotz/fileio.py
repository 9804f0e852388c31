"""Text file formats: field descriptors, magnitude grids, magnitude data.

All numbers are serialized with 17 significant digits so that write/read
round trips are bit-faithful; writes are atomic (temp file + rename).
"""

import math
import os
import tempfile

import numpy as np

from . import harmonics
from .field import HerglotzField, MagnitudeData, MagnitudeGrid, pair_frequencies
from .harmonics import BasisSpec, SphereGrid, harmonic_dim, sphere_grid

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


def _read_records(text: str, magic: str, required: tuple, body):
    """Read a keyed-record file: the magic line, then one record per line.

    The integer headers among ``required`` and the basis block (``basis``,
    ``normalization``, ``pole``) are read here; every other record goes to
    ``body(line, key, args)``, which returns False for a key it does not know.
    Returns the integer headers by name, the basis (None without one) and the
    line of each header.
    """
    rows = []
    for i, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            rows.append((i, s))
    if not rows or rows[0][1] != magic:
        raise FileFormatError(f"expected header {magic!r}", rows[0][0] if rows else 1)
    head = {key: None for key in required if key != "basis"}
    head_lines = {}
    kind = normalization = kind_line = None
    poles: dict = {}
    for i, s in rows[1:]:
        key, *args = s.split()
        try:
            if key in head:
                head[key], head_lines[key] = int(args[0]), i
            elif key == "basis":
                kind, kind_line = args[0], i
                if kind not in harmonics.KINDS:
                    raise FileFormatError(f"unknown basis kind {kind!r}", i)
            elif key == "normalization":
                normalization = args[0]
                if normalization not in harmonics.NORMALIZATIONS:
                    raise FileFormatError(f"unknown normalization {normalization!r}", i)
            elif key == "pole":
                m, j = int(args[0]), int(args[1])
                if j in poles.setdefault(m, {}):
                    raise FileFormatError(f"repeated pole {m} {j}", i)
                poles[m][j] = (i, [float(x) for x in args[2:]])
            elif not body(i, key, args):
                raise FileFormatError(f"unknown key {key!r}", i)
        except FileFormatError:
            raise
        except (IndexError, ValueError) as e:
            raise FileFormatError(f"malformed {key!r} record: {e}", i)
    if None in head.values() or ("basis" in required and kind is None):
        raise FileFormatError(f"missing {' / '.join(required)} header")
    if kind is None:
        return head, None, head_lines
    dim, max_degree = head["dim"], head["max_degree"]
    stray = [(i, m) for m, entries in poles.items() for i, _ in entries.values()
             if not 0 <= m <= max_degree]
    if stray:
        i, m = min(stray)
        raise FileFormatError(f"pole degree {m} is outside 0..max_degree {max_degree}", i)
    if kind == harmonics.ZONAL:
        # the writer lists every degree's poles; a reader that filled in a
        # missing degree with default_poles would read other functions
        for m in range(max_degree + 1):
            poles.setdefault(m, {})
    table = {}
    for m, entries in poles.items():
        table[m] = np.zeros((harmonic_dim(dim, m), dim))
        for j, (i, vec) in entries.items():
            if not 1 <= j <= len(table[m]):
                raise FileFormatError(f"pole index {j} out of range for degree {m}", i)
            try:
                table[m][j - 1] = vec
            except ValueError as e:
                raise FileFormatError(str(e), i)
            if abs(np.linalg.norm(table[m][j - 1]) - 1) > harmonics.SURFACE_TOL:
                raise FileFormatError(f"pole table for degree {m} contains non-unit vectors", i)
        missing = [j for j in range(1, len(table[m]) + 1) if j not in entries]
        if missing:
            raise FileFormatError(f"degree {m} has no pole {missing[0]}", kind_line)
    try:
        return head, BasisSpec(kind, dim, normalization or harmonics.RAW, table), head_lines
    except ValueError as e:
        # what is left concerns the basis as a whole: its kind against dim
        raise FileFormatError(str(e), kind_line)


def parse_field(text: str) -> HerglotzField:
    entries = []

    def body(i, key, args):
        if key != "coeff":
            return False
        entries.append((i, int(args[0]), int(args[1]), float(args[2]), float(args[3])))
        return True

    head, basis, _ = _read_records(text, FIELD_MAGIC, ("dim", "max_degree", "basis"), body)
    dim, max_degree = head["dim"], head["max_degree"]
    coeffs = [np.zeros(harmonic_dim(dim, m), dtype=complex) for m in range(max_degree + 1)]
    seen = set()
    for i, m, j, re, im in entries:
        if not 0 <= m <= max_degree:
            raise FileFormatError(f"coefficient degree {m} out of range", i)
        if not 1 <= j <= harmonic_dim(dim, m):
            raise FileFormatError(f"coefficient index {j} out of range for degree {m}", i)
        if (m, j) in seen:
            raise FileFormatError(f"repeated coeff {m} {j}", i)
        seen.add((m, j))
        coeffs[m][j - 1] = complex(re, im)
    return HerglotzField(dim, max_degree, basis, coeffs)


def read_field(path: str) -> HerglotzField:
    with open(path, encoding="utf-8") as fh:
        return parse_field(fh.read())


# --------------------------------------------------------------------------
# magnitude grid (delimited text)


_GRID_HEADERS = {2: "r,theta,value", 3: "r,theta,phi,value"}


def _grid_angles(grid: SphereGrid) -> np.ndarray:
    """Angle columns of a magnitude grid file, one row per node in file order.

    d = 2: theta of each uniform node; d = 3: (theta, phi) over the Gauss
    polar nodes (outer) crossed with the uniform azimuths (inner).
    """
    if grid.dim == 2:
        return grid.angles[:, None]
    if grid.dim == 3:
        naz = grid.azimuth_count
        phis = 2 * np.pi * np.arange(naz) / naz
        polar = np.arccos(grid.polar_t)
        return np.column_stack([np.repeat(polar, naz), np.tile(phis, len(polar))])
    raise ValueError(f"magnitude grid files hold d = 2 or 3 samples, not d = {grid.dim}")


def grid_to_text(g: MagnitudeGrid) -> str:
    angles = [",".join(map(_fmt, a)) for a in _grid_angles(g.grid)]
    lines = [_GRID_HEADERS[g.dim]]
    for r, vals in zip(map(_fmt, g.radii), g.values):
        lines += [f"{r},{a},{_fmt(v)}" for a, v in zip(angles, vals)]
    return "\n".join(lines) + "\n"


def write_grid(path: str, g: MagnitudeGrid):
    atomic_write(path, grid_to_text(g))


def parse_grid(text: str) -> MagnitudeGrid:
    """Read a grid file; its rows must run radius-major over the sphere_grid nodes."""
    lines = text.splitlines()
    if not lines:
        raise FileFormatError("empty grid file")
    header = lines[0].strip()
    dim = next((d for d, h in _GRID_HEADERS.items() if h == header), None)
    if dim is None:
        raise FileFormatError(f"unrecognized grid header {header!r}", 1)
    rows, line_nos = [], []
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
        line_nos.append(i)
    if not rows:
        raise FileFormatError("grid file has no data rows")
    arr = np.array(rows)
    radii = []
    for r in arr[:, 0]:
        if not radii or r != radii[-1]:
            radii.append(r)
    n_nodes = len(arr) // len(radii)
    if len(arr) != n_nodes * len(radii):
        raise FileFormatError("grid rows do not factor into radii x angular nodes")
    # a d = 3 grid of resolution n has n polar nodes and 2n azimuths
    res = n_nodes if dim == 2 else math.isqrt(n_nodes // 2)
    if dim == 3 and 2 * res * res != n_nodes:
        raise FileFormatError("d=3 grid nodes do not factor into polar x azimuth")
    grid = sphere_grid(dim, res)
    layout = np.column_stack(
        [np.repeat(radii, n_nodes), np.tile(_grid_angles(grid), (len(radii), 1))]
    )
    off = np.flatnonzero(np.any(np.abs(arr[:, :-1] - layout) > 1e-9, axis=1))
    if off.size:
        k = off[0]
        raise FileFormatError(
            f"row is off the grid layout: expected {header.removesuffix(',value')} = "
            f"{','.join(map(_fmt, layout[k]))}, got {','.join(map(_fmt, arr[k, :-1]))}",
            line_nos[k],
        )
    return MagnitudeGrid(dim, np.array(radii), grid, arr[:, -1].reshape(len(radii), n_nodes))


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
    """Returns (MagnitudeData, BasisSpec or None).

    Every pair 0 <= m <= n <= max_degree has exactly one ``pair`` record. A
    d = 2 pair is followed by one ``fourier`` record per frequency it carries,
    a d >= 3 pair by one ``samples`` record.
    """
    pair = None
    pair_lines: dict = {}
    first_line: dict = {}
    fourier: dict = {}
    samples: dict = {}

    def body(i, key, args):
        nonlocal pair
        if key == "pair":
            pair = (int(args[0]), int(args[1]))
            if pair in pair_lines:
                raise FileFormatError(f"repeated pair {pair[0]} {pair[1]}", i)
            pair_lines[pair] = i
        elif key not in ("fourier", "samples"):
            return False
        elif pair is None:
            raise FileFormatError(f"{key} record before any pair", i)
        elif key == "fourier":
            q = int(args[0])
            if q in fourier.setdefault(pair, {}):
                raise FileFormatError(f"repeated fourier {q} record for pair {pair[0]} {pair[1]}", i)
            # complex() keeps the sign of a zero imaginary part; re + 1j * im does not
            fourier[pair][q] = (i, complex(float(args[1]), float(args[2])))
        elif pair in samples:
            raise FileFormatError(f"repeated samples record for pair {pair[0]} {pair[1]}", i)
        else:
            samples[pair] = np.array([float(x) for x in args])
        first_line.setdefault(key, i)
        return True

    head, basis, head_lines = _read_records(
        text, DATA_MAGIC, ("dim", "max_degree", "grid"), body
    )
    dim, M = head["dim"], head["max_degree"]
    grid = sphere_grid(dim, head["grid"])
    for (m, n), i in pair_lines.items():
        if not 0 <= m <= n <= M:
            raise FileFormatError(f"pair {m} {n} is not in 0 <= m <= n <= {M}", i)
    # d = 2 pairs carry Fourier coefficients, d >= 3 pairs one samples row
    stray = "samples" if dim == 2 else "fourier"
    if stray in first_line:
        raise FileFormatError(f"{stray} record in a d = {dim} data file", first_line[stray])
    for m in range(M + 1):
        for n in range(m, M + 1):
            if (m, n) not in pair_lines:
                raise FileFormatError(
                    f"max_degree {M} needs pair {m} {n}, which the file lacks",
                    head_lines["max_degree"],
                )
    if dim == 2:
        table = np.zeros((M + 1, M + 1, 4 * M + 1), dtype=complex)
        for (m, n), i in pair_lines.items():
            tab = fourier.get((m, n), {})
            for q, (line, c) in tab.items():
                if q not in pair_frequencies(m, n):
                    raise FileFormatError(f"pair {m} {n} has no frequency {q}", line)
                table[m, n, q + 2 * M] = c
            for q in pair_frequencies(m, n):
                if q not in tab:
                    raise FileFormatError(f"pair {m} {n} has no fourier {q} record", i)
    else:
        table = np.zeros((M + 1, M + 1, len(grid)))
        for (m, n), i in pair_lines.items():
            if (m, n) not in samples:
                raise FileFormatError(f"pair {m} {n} has no samples record", i)
        for (m, n), vals in samples.items():
            if len(vals) != len(grid):
                raise FileFormatError(
                    f"pair {(m, n)} has {len(vals)} samples, grid has {len(grid)}"
                )
            table[m, n] = vals
    return MagnitudeData(dim, grid, table), basis


def read_data(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_data(fh.read())
