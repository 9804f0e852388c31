"""Independent references for checking the herglotz pipeline's outputs.

Nothing here calls herglotz. The magnitude data of a field is rebuilt from
its generating coefficients in closed form (d = 2) or from Gegenbauer /
Legendre products evaluated with scipy.special (zonal bases), and a
retrieved field is compared with the generating one at the coefficient level,
modulo the trivial ambiguity u -> c u, u -> c conj(u) with |c| = 1.

scipy is imported on first use, so that importing this module stays out of
the benchmark's set-up time (the program itself does not use scipy).
"""

import math

import numpy as np

# A field passes when both its magnitude data and its retrieved coefficients
# are within PASS_TOL of the references, relative to their largest entry. The
# README gives the reason for the value.
PASS_TOL = 1e-5
# -log10 of a relative error, capped so that an exact match stays finite.
DIGITS_CAP = 16.0

FOURIER2D = "fourier2d"


def digits(rel_err: float) -> float:
    """Correct decimal digits of a relative error, capped at DIGITS_CAP."""
    return min(DIGITS_CAP, -math.log10(max(rel_err, 10.0 ** -DIGITS_CAP)))


# --------------------------------------------------------------------------
# magnitude data references


def fourier2d_reference(coeffs) -> dict:
    """Angular Fourier coefficients of Re c_{m,n} for a d = 2 field.

    ``coeffs[m]`` holds (a_m^+, a_m^-), the amplitudes of e^{+imt} and e^{-imt}
    (a single entry for m = 0). With f_m = a_m^+ e^{imt} + a_m^- e^{-imt},
    c_{m,n} = f_m conj(f_n) has coefficient C_q = sum_{k - l = q} A_k conj(B_l),
    and Re c_{m,n} has (C_q + conj(C_{-q})) / 2. Returns {(m, n): {q: complex}}
    for m <= n.
    """
    M = len(coeffs) - 1
    freq = np.zeros((M + 1, 2 * M + 1), dtype=complex)  # freq[m, M + k]
    for m, vec in enumerate(coeffs):
        vec = np.asarray(vec, dtype=complex)
        if m == 0:
            freq[0, M] = vec[0]
        else:
            freq[m, M + m] = vec[0]
            freq[m, M - m] = vec[1]
    out = {}
    for m in range(M + 1):
        for n in range(m, M + 1):
            # full correlation: index i of C is frequency q = i - 2M
            corr = np.correlate(freq[m], freq[n], mode="full")
            re_part = (corr + np.conj(corr[::-1])) / 2.0
            out[(m, n)] = {
                i - 2 * M: complex(c) for i, c in enumerate(re_part) if c != 0
            }
    return out


def fourier2d_deviation(program: dict, reference: dict) -> float:
    """Max deviation of program Fourier tables from the reference, relative to
    the reference's largest entry. Missing entries count as zero."""
    worst = 0.0
    peak = max((abs(c) for tab in reference.values() for c in tab.values()), default=0.0)
    for key in set(program) | set(reference):
        a, b = program.get(key, {}), reference.get(key, {})
        for q in set(a) | set(b):
            worst = max(worst, abs(complex(a.get(q, 0)) - b.get(q, 0)))
    return worst / peak if peak > 0 else worst


def sphere3_nodes(resolution: int) -> np.ndarray:
    """Nodes of the d = 3 data grid: Gauss-Legendre polar cosines (ascending)
    crossed with 2 * resolution uniform azimuths, polar index outer."""
    from scipy import special

    t, _ = special.roots_legendre(resolution)
    naz = 2 * resolution
    phi = 2 * np.pi * np.arange(naz) / naz
    st = np.sqrt(1.0 - t**2)
    return np.stack(
        [np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel(), np.repeat(t, naz)],
        axis=1,
    )


def zonal_values(m: int, dim: int, poles: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """C_m^{d/2-1}(<theta, zeta_j>) at the nodes, one column per pole; for
    d = 3 these are Legendre polynomials P_m."""
    from scipy import special

    x = np.clip(nodes @ np.asarray(poles, dtype=float).T, -1.0, 1.0)
    if dim == 3:
        return special.eval_legendre(m, x)
    return special.eval_gegenbauer(m, dim / 2.0 - 1.0, x)


def zonal_reference(coeffs, poles: dict, dim: int, nodes: np.ndarray) -> dict:
    """Re c_{m,n} = Re(f_m conj(f_n)) at the nodes for a field in a zonal
    basis, f_m = sum_j a_{m,j} C_m^{d/2-1}(<theta, zeta_{m,j}>).
    Returns {(m, n): ndarray} for m <= n."""
    fvals = [
        zonal_values(m, dim, poles[m], nodes) @ np.asarray(vec, dtype=complex)
        for m, vec in enumerate(coeffs)
    ]
    M = len(fvals) - 1
    return {
        (m, n): (fvals[m] * np.conj(fvals[n])).real
        for m in range(M + 1)
        for n in range(m, M + 1)
    }


def samples_deviation(program: dict, reference: dict) -> float:
    """Max deviation of program pair samples from the reference, relative to
    the reference's largest sample. Missing pairs count as zero."""
    peak = max((float(np.abs(v).max(initial=0.0)) for v in reference.values()), default=0.0)
    worst = 0.0
    for key in set(program) | set(reference):
        a = program.get(key)
        b = reference.get(key)
        a = np.zeros_like(b) if a is None else np.asarray(a, dtype=float)
        b = np.zeros_like(a) if b is None else b
        worst = max(worst, float(np.abs(a - b).max(initial=0.0)))
    return worst / peak if peak > 0 else worst


# --------------------------------------------------------------------------
# coefficient-level equivalence


def conjugate_coeffs(coeffs, kind: str) -> list:
    """Coefficients of conj(u): fourier2d swaps the +-m entries and conjugates,
    real bases conjugate entrywise."""
    out = []
    for m, vec in enumerate(coeffs):
        vec = np.asarray(vec, dtype=complex)
        if kind == FOURIER2D and m >= 1:
            out.append(np.conj(vec[::-1]))
        else:
            out.append(np.conj(vec))
    return out


def _flat(coeffs, sizes) -> np.ndarray:
    parts = []
    for m, size in enumerate(sizes):
        vec = np.asarray(coeffs[m], dtype=complex) if m < len(coeffs) else np.zeros(0)
        pad = np.zeros(size, dtype=complex)
        pad[: len(vec)] = vec
        parts.append(pad)
    return np.concatenate(parts)


def coefficient_error(generating, retrieved, kind: str) -> float:
    """min over |c| = 1 and w in {u, conj(u)} of ||v - c w|| / ||w||.

    For a fixed w the least-squares optimal unimodular c is the phase of
    <w, v>. Degree tables of different length are zero-padded.
    """
    M = max(len(generating), len(retrieved))
    sizes = [
        max(
            len(generating[m]) if m < len(generating) else 0,
            len(retrieved[m]) if m < len(retrieved) else 0,
        )
        for m in range(M)
    ]
    v = _flat(retrieved, sizes)
    best = math.inf
    for w_coeffs in (generating, conjugate_coeffs(generating, kind)):
        w = _flat(w_coeffs, sizes)
        norm = np.linalg.norm(w)
        ip = np.vdot(w, v)
        c = ip / abs(ip) if abs(ip) > 0 else 1.0
        best = min(best, float(np.linalg.norm(v - c * w) / norm) if norm > 0 else math.inf)
    return best


def rotate_one_mode(coeffs) -> list:
    """Negative control: the field with its largest coefficient rotated by
    e^{i}. With two or more nonzero coefficients this is not c u or
    c conj(u) for any unimodular c, so it must fail the coefficient check."""
    out = [np.array(v, dtype=complex) for v in coeffs]
    sizes = [len(v) for v in out]
    flat = np.concatenate(out)
    k = int(np.argmax(np.abs(flat)))
    for m, size in enumerate(sizes):
        if k < size:
            out[m][k] *= np.exp(1j)
            break
        k -= size
    return out


# --------------------------------------------------------------------------
# file readers (the CLI's text formats, parsed without herglotz)


def read_field_file(path: str) -> dict:
    """Parse a field descriptor: dim, max_degree, basis, poles {m: array},
    coeffs [array per degree]."""
    out = {"poles": {}, "basis": None}
    entries = {}
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if " ".join(lines[0]) != "herglotz-field 1":
        raise ValueError(f"{path}: not a field descriptor")
    for parts in lines[1:]:
        key = parts[0]
        if key in ("dim", "max_degree"):
            out[key] = int(parts[1])
        elif key == "basis":
            out["basis"] = parts[1]
        elif key == "pole":
            m, j = int(parts[1]), int(parts[2])
            out["poles"].setdefault(m, {})[j] = [float(x) for x in parts[3:]]
        elif key == "coeff":
            m, j = int(parts[1]), int(parts[2])
            entries.setdefault(m, {})[j] = float(parts[3]) + 1j * float(parts[4])
    out["poles"] = {
        m: np.array([rows[j] for j in sorted(rows)]) for m, rows in out["poles"].items()
    }
    out["coeffs"] = [
        np.array([entries[m][j] for j in sorted(entries[m])], dtype=complex)
        for m in range(out["max_degree"] + 1)
    ]
    return out


def poles_match(a: dict, b: dict) -> bool:
    """Whether two parsed zonal fields use the same pole rows on their common
    degrees (the coefficients are only comparable in one basis)."""
    for m in set(a["poles"]) & set(b["poles"]):
        pa, pb = a["poles"][m], b["poles"][m]
        if pa.shape != pb.shape or not np.allclose(pa, pb, rtol=0.0, atol=1e-12):
            return False
    return True


def read_data_file(path: str) -> dict:
    """Parse a magnitude-data file: dim, max_degree, grid resolution, and per
    pair either a Fourier table {q: complex} (d = 2) or a samples array."""
    out = {"fourier": {}, "samples": {}}
    pair = None
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    if " ".join(lines[0]) != "herglotz-magnitude-data 1":
        raise ValueError(f"{path}: not a magnitude-data file")
    for parts in lines[1:]:
        key = parts[0]
        if key in ("dim", "max_degree", "grid"):
            out[key] = int(parts[1])
        elif key == "pair":
            pair = (int(parts[1]), int(parts[2]))
            out["fourier"].setdefault(pair, {})
        elif key == "fourier":
            out["fourier"][pair][int(parts[1])] = float(parts[2]) + 1j * float(parts[3])
        elif key == "samples":
            out["samples"][pair] = np.array([float(x) for x in parts[1:]])
    return out
