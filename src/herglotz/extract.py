"""Recovery of the magnitude data Re c_{m,n} from gridded samples of |u|^2.

The pipeline is: angular decomposition of the samples into per-frequency
(d = 2) or per-Gegenbauer-degree (d >= 3, zonal, in x_d) radial profiles,
followed by a radial unmixing of each profile over the Bessel-product dictionary

    g_q(r) ~= sum_{(m,n) compatible with q} gamma_{m,n} 2 pi r^{-(d-2)}
              J_{nu(m)}(r) J_{nu(n)}(r).

The design matrices are generalized Vandermonde systems whose conditioning
grows steeply with the truncation degree. Each solver has a factor and an
apply step. Double samples take _f64_factor (unit-norm columns, numpy QR; above
CONDITION_WARN it raises ExtractionRankError with the estimate and the weak
pairs) and _f64_apply (one refinement step, residual in np.longdouble): the
d = 2 "float64" profile solves and the d >= 3 zonal joint solve. Object arrays
of mp samples, and "lstsq" and "taylor" on request, take _mp_factor and
_mp_apply, which hold columns and right-hand sides as Python integers scaled by
2^(mp.prec + GUARD_BITS). A design depends on (pairs, radii, d, mp.prec), not
on the samples, so the per-profile factorizations are process-wide tables
(_lstsq_design, _taylor_design, _float64_design, _DESIGN_TABLE_SIZE entries
each); refused designs and the zonal joint solve are not tabled. The 50-digit
solves take their precision from mpmath's global context and no table is
locked: parallelize across processes, not threads.

The d = 2 angular transform of mp samples is exactly rounded: each part is
one integer dot product of the row and a twiddle, both held as integers on one
exponent, rounded once and then divided by Q. The twiddles are a process-wide
table per (Q, precision), _dft_twiddles. A row holding inf or nan raises
ValueError. angular_decompose keeps the profiles of every grid, mp, double or
d >= 3, per MagnitudeGrid object while it lives (_PROFILES, a weak-key table):
the grid's values are read-only, so the lstsq and taylor extractions of one
grid, or a degree estimate and the extraction after it, share one transform.

estimate_max_degree reads only residuals, so it unmixes with the "float64"
method whatever the samples' precision; for d = 2 it takes the first degree that
fits within FIT_BUDGET times the profiles' rounding level, or refuses.
"""

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import mul

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .field import MagnitudeData, MagnitudeGrid, check_degree, check_radii, nu_order
from .harmonics import _polar_rule
from .specfun import _raw, _read_only, _round, _round_div, bessel_j_mp, bessel_row, gegenbauer

WORK_DPS = 50
# fraction bits beyond mp.prec carried by the fixed-point least-squares solve
GUARD_BITS = 64
CONDITION_WARN = 1e10
# angular components beyond 2M above this multiple of the sample scale are
# content of a higher degree: 64 eps, the rounding level of the double DFT
TRUNCATION_FLOOR = 64 * np.finfo(float).eps
# a d = 2 degree fits within this many eps * scale * sqrt(radii / angles)
FIT_BUDGET = 32
# radial_grid keeps its nodes above this fraction of the ball radius
INNER_FRAC = 0.05
# (angles per circle, precision) twiddle tables kept by _dft_twiddles
_TWIDDLE_TABLE_SIZE = 16
# designs kept by each of _lstsq_design, _taylor_design and _float64_design
_DESIGN_TABLE_SIZE = 32


class ExtractionRankError(RuntimeError):
    """Design matrix lost column rank; names the colliding pairs."""

    def __init__(self, pairs, condition=None):
        why = "" if condition is None else f" (condition estimate {condition:.2e})"
        super().__init__(f"rank-deficient unmixing system{why}; colliding pairs: {pairs}")
        self.pairs = pairs
        self.condition = condition


class DegreeUnresolvableError(RuntimeError):
    """The samples hold angular content above twice the estimated degree."""


class NonZonalDataError(ValueError):
    """d >= 3 samples vary over the S^{d-2} nodes of a polar node: not zonal."""


@dataclass(eq=False)
class RadialProfile:
    """One angular component of the magnitude samples as a function of radius;
    values holds one entry per radius."""

    dim: int
    frequency: int  # angular frequency (d=2) or Gegenbauer degree (d>=3)
    radii: np.ndarray
    values: np.ndarray  # complex (d=2) or real (d>=3); may be an mpf object array

    def __post_init__(self):
        self.radii = check_radii(self.radii)
        if np.shape(self.values) != (len(self.radii),):
            raise ValueError(
                f"values have shape {np.shape(self.values)}; {len(self.radii)} radii "
                f"need ({len(self.radii)},)"
            )


@dataclass
class UnmixReport:
    """Result of unmixing one radial profile."""

    frequency: int  # -1 for the d >= 3 joint solve across components
    gamma: dict  # (m, n) -> complex (d=2) or float (d>=3)
    residual: float
    condition: float
    method: str
    warnings: list = dc_field(default_factory=list)


def radial_grid(count: int, eta: float = 1.0) -> np.ndarray:
    """Chebyshev-spaced radial nodes in (INNER_FRAC * eta, eta]."""
    if count < 1:
        raise ValueError("need at least one radial node")
    if not 0 < eta < math.inf:
        raise ValueError(f"the ball radius eta must be positive and finite, got {eta}")
    k = np.arange(count)
    x = np.cos((2 * k + 1) * np.pi / (2 * count))
    lo = INNER_FRAC * eta
    return np.sort(lo + (eta - lo) * (x + 1) / 2)


# --------------------------------------------------------------------------
# angular decomposition


# MagnitudeGrid -> the tuple of its angular_decompose profiles, while it lives;
# its values are read-only, so the entry cannot go stale
_PROFILES = weakref.WeakKeyDictionary()


def _is_uniform_angles(angles, count) -> bool:
    expected = 2 * np.pi * np.arange(count) / count
    return np.allclose(np.sort(angles % (2 * np.pi)), expected, atol=1e-9)


def _aligned(raws):
    """Raw libmp values as integers on the lowest exponent e among them:
    value_i = ints_i * 2^e. Returns (ints, e)."""
    e = min((exp for _, man, exp, _ in raws if man), default=0)
    return [((-man if sign else man) << (exp - e)) if man else 0
            for sign, man, exp, _ in raws], e


@lru_cache(maxsize=_TWIDDLE_TABLE_SIZE)
def _dft_twiddles(Q, prec):
    """The twiddles e^{-2 pi i q k / Q}, k < Q, of the mp DFT for q <= (Q - 1) // 2,
    rounded at precision prec: per q, their cos and sin parts as integers on
    one exponent e, (cos, sin, e). Shared across the process."""
    per_q = []
    with mp.workprec(prec):
        for q in range((Q - 1) // 2 + 1):
            twiddle = [mp.expjpi(mpf(-2 * q * k) / Q)._mpc_ for k in range(Q)]
            ints, e = _aligned([z[0] for z in twiddle] + [z[1] for z in twiddle])
            per_q.append((tuple(ints[:Q]), tuple(ints[Q:]), e))
    return tuple(per_q)


def _mp_dft(row, per_q):
    """sum_k row_k twiddle_k / Q for every twiddle of a _dft_twiddles table,
    Q = len(row), each value taken as mpf(v).

    Each part is one integer dot product of the aligned row and twiddle parts,
    so the sum is exact; it is rounded once by _round, then divided by Q by
    _round_div, as mpc / int divides. A row holding inf or nan raises
    ValueError.
    """
    raws = [mpf(v)._mpf_ for v in row]
    if any(exp and not man for _, man, exp, _ in raws):
        raise ValueError("the mp DFT needs finite samples")
    A, ea = _aligned(raws)
    prec, Q = mp.prec, len(row)

    def part(dot, exp):
        return _raw(*_round_div(*_round(dot, exp, prec), Q, prec), prec)

    return [mp.make_mpc((part(_dot(A, C), ea + e), part(_dot(A, S), ea + e)))
            for C, S, e in per_q]


def angular_decompose(samples: MagnitudeGrid, d: int) -> list:
    """Split magnitude samples into per-frequency radial profiles.

    d=2 requires a uniform angular grid (the transform is an exact DFT for
    band-limited data). d>=3 requires zonal data on the product grid of
    sphere_grid: the samples of each polar node are averaged over its S^{d-2}
    nodes and projected, with the polar rule's weights, onto the Gegenbauer
    polynomials C^lam_q(x_d), lam = d/2 - 1, of the last coordinate.

    The profiles are computed once per grid object and kept, with read-only
    values, while the grid lives; each call returns a new list of them.
    """
    if d != samples.dim:
        raise ValueError("dimension mismatch with the sample grid")
    profiles = _PROFILES.get(samples)
    if profiles is None:
        profiles = _PROFILES[samples] = tuple(_decompose(samples, d))
        for p in profiles:
            _read_only(p.values)
    return list(profiles)


def _decompose(samples, d):
    """The profiles of angular_decompose, computed afresh."""
    grid = samples.grid
    if d == 2:
        if grid.angles is None or not _is_uniform_angles(grid.angles, len(grid)):
            raise ValueError("d=2 extraction requires a uniform angular grid")
        Q = len(grid)
        vals = samples.values
        high = vals.dtype == object
        qmax = (Q - 1) // 2
        profiles = []
        with mp.workdps(WORK_DPS):
            if high:
                table = _dft_twiddles(Q, mp.prec)
                parts = [_mp_dft(row, table) for row in vals.tolist()]
                for q in range(qmax + 1):
                    rows = np.empty(len(samples.radii), dtype=object)
                    rows[:] = [part[q] for part in parts]
                    profiles.append(RadialProfile(2, q, samples.radii, rows))
            else:
                coef = np.fft.fft(np.asarray(vals, dtype=float), axis=1) / Q
                for q in range(qmax + 1):
                    profiles.append(RadialProfile(2, q, samples.radii, coef[:, q]))
        return profiles
    if grid.polar_t is None or grid.azimuth_count == 0:
        raise ValueError(f"d={d} extraction requires the polar product grid of sphere_grid")
    vals = np.asarray(samples.values, dtype=float)
    npol = len(grid.polar_t)
    cube = vals.reshape(len(samples.radii), npol, grid.azimuth_count)
    spread = np.abs(cube - cube.mean(axis=2, keepdims=True)).max()
    threshold = 1e-8 * (1 + np.abs(vals).max())
    if spread > threshold:
        raise NonZonalDataError(
            f"d={d} samples are not zonal: azimuthal spread {spread:.3e} exceeds "
            f"1e-8 * (1 + max|values|) = {threshold:.3e}; per-component Bessel-product "
            f"dictionaries are rank-deficient for q >= 2, so only zonal d = {d} data "
            "can be extracted from samples"
        )
    zone = cube.mean(axis=2)  # (nr, npol)
    _, w, inv_norm = _polar_rule(d, npol)
    Cw = np.array([gegenbauer(q, d / 2 - 1, grid.polar_t) for q in range(npol)]) * w
    return [RadialProfile(d, q, samples.radii, (zone * Cw[q]).sum(axis=1) * inv_norm[q])
            for q in range(npol)]


def compatible_pairs(q: int, M: int, d: int) -> list:
    """Unordered index pairs (m, n), m <= n <= M, that can feed component q."""
    out = []
    for m in range(M + 1):
        for n in range(m, M + 1):
            if d == 2:
                if m + n == q or n - m == q:
                    out.append((m, n))
            else:
                if n - m <= q <= m + n and (m + n - q) % 2 == 0:
                    out.append((m, n))
    return out


# --------------------------------------------------------------------------
# per-profile unmixing (arbitrary precision internals)


def _mp_columns(pairs, radii, d):
    """Column functions 2 pi r^{-(d-2)} J_{nu(m)} J_{nu(n)} at the radii, as mpf lists."""
    jcache = {
        m: [bessel_j_mp(nu_order(m, d), mpf(r)) for r in radii]
        for m in sorted({m for p in pairs for m in p})
    }
    pref = [2 * mp.pi / mpf(r) ** (d - 2) for r in radii]
    return [[pref[i] * jcache[m][i] * jcache[n][i] for i in range(len(radii))] for m, n in pairs]


def _fixed(values, frac):
    """mpf values as integers floor(v * 2^(frac - e)), with 2^e the smallest
    power of two above every |v| (e = 0 for all zeros); returns (ints, e)."""
    raw = [v._mpf_ for v in values]
    e = max((exp + bc for _, man, exp, bc in raw if man), default=0)
    return [to_fixed(s, frac - e) for s in raw], e


def _dot(a, b):
    return sum(map(mul, a, b))


# qcols: the orthonormal columns; rows: the unit-norm columns by rows, for the residual
_MpFactor = namedtuple("_MpFactor", "qcols R rows norms exps deficient cond")


def _mp_factor(cols, labels=None):
    """Modified Gram-Schmidt (two passes) on columns of mpf values, each scaled
    by a power of two from its largest entry, normalized and held as integers
    with F = mp.prec + GUARD_BITS fraction bits: an _MpFactor of tuples, with
    the condition estimate from the R diagonal. Given the columns' labels,
    rank-deficient columns raise ExtractionRankError."""
    F = mp.prec + GUARD_BITS
    scaled = [_fixed(col, F) for col in cols]
    norms = [math.isqrt(_dot(a, a)) for a, _ in scaled]
    unit = [[(x << F) // nr for x in a] if nr else a for (a, _), nr in zip(scaled, norms)]
    ncols = len(cols)
    qcols, R = [], [[0] * ncols for _ in range(ncols)]
    for j in range(ncols):
        v = unit[j]
        for _ in range(2):  # reorthogonalize
            for i, qi in enumerate(qcols):
                c = _dot(qi, v) >> F
                R[i][j] += c
                v = [vt - ((c * qt) >> F) for vt, qt in zip(v, qi)]
        nr = math.isqrt(_dot(v, v))
        R[j][j] = nr
        qcols.append(tuple((x << F) // nr for x in v) if nr else tuple(v))
    diag = [R[j][j] for j in range(ncols)]
    dmax = max(diag)
    deficient = tuple(j for j, dj in enumerate(diag) if dj * 10 ** (mp.dps - 8) <= dmax)
    cond = dmax / min(diag) if min(diag) > 0 else math.inf
    if labels is not None and deficient:
        raise ExtractionRankError([labels[j] for j in deficient])
    return _MpFactor(tuple(qcols), tuple(map(tuple, R)), tuple(zip(*unit)), tuple(norms),
                     tuple(e for _, e in scaled), deficient, cond)


def _mp_apply(f, rhss):
    """Least squares through the _mp_factor f for every right-hand side in rhss,
    each held as integers as the columns are; deficient columns get 0. Returns
    (one solution per right-hand side, as mpf at the working precision; one
    residual norm per right-hand side)."""
    F, prec, ncols = mp.prec + GUARD_BITS, mp.prec, len(f.qcols)
    sols, resids = [], []
    for rhs in rhss:
        b, eb = _fixed(rhs, F)
        x = [0] * ncols
        for i in range(ncols - 1, -1, -1):
            if i not in f.deficient:
                s = _dot(f.qcols[i], b) - _dot(f.R[i][i + 1:], x[i + 1:])
                x[i] = s // f.R[i][i]
        fit = [_dot(row, x) >> F for row in f.rows]
        resid = math.isqrt(sum((bt - ft) ** 2 for bt, ft in zip(b, fit)))
        # entry j of the solution is x_j / N_j * 2^(eb - e_j), rounded once
        sols.append([mp.make_mpf(_raw(*_round_div(xj, eb - e, nr, prec), prec))
                     if nr else mpf(0) for xj, nr, e in zip(x, f.norms, f.exps)])
        resids.append(float(mp.ldexp(resid, eb - F)))
    return sols, resids


def _mp_parts(values):
    """Real and imaginary parts of profile values as mpf lists, exactly: mp
    numbers and double values alike convert without rounding."""
    return [mpf(v.real) for v in values], [mpf(v.imag) for v in values]


@lru_cache(maxsize=_DESIGN_TABLE_SIZE)
def _taylor_design(pairs, radii, d, prec):
    """The _mp_factor of the Taylor matching's power columns on the inner radii
    and of its series matrix S, for pairs on the radii (bytes) at precision prec."""
    with mp.workprec(prec):
        alpha = (d - 2) / 2.0
        radii = np.frombuffer(radii)
        n_inner = max(len(radii) // 3, min(len(radii), 8))
        rin = [mpf(r) for r in radii[:n_inner]]
        lmin, lmax = min(m + n for m, n in pairs), max(m + n for m, n in pairs)
        # The margin beyond the highest leading order pushes the aliasing of the
        # unmodeled (factorially decaying) series tail below the solve's noise
        # floor; same-leading-order blocks are separated only by these rows.
        K = min((lmax - lmin) // 2 + 1 + 12, n_inner - 1)
        # power columns r^{lmin + 2k}; the d-dependent prefactor r^{-(d-2)} is
        # absorbed by multiplying the profile by r^{d-2}
        pcols = [[r ** (lmin + 2 * k) for r in rin] for k in range(K)]
        # series matrix S[k][j]: coefficient of r^(lmin+2k) in 2 pi J_{nu(m)} J_{nu(n)},
        # held by columns
        S = [[mpf(0)] * K for _ in pairs]
        for j, (m, n) in enumerate(pairs):
            s = m + n + 2 * alpha
            nu1, nu2 = m + alpha, n + alpha
            t = 2 * mp.pi / (mp.gamma(nu1 + 1) * mp.gamma(nu2 + 1)) / mpf(2) ** s
            base = (m + n - lmin) // 2
            for kk in range(K - base):
                S[j][base + kk] = t
                t = -t / 4 * (s + 2 * kk + 1) * (s + 2 * kk + 2) / (
                    (kk + 1) * (nu1 + kk + 1) * (nu2 + kk + 1) * (s + kk + 1)
                )
        return _mp_factor(pcols), _mp_factor(S, pairs)


def _taylor_unmix(profile, pairs, d):
    """The 50-digit triangular Taylor matching report for one profile: fit even
    powers of r about 0 on the inner third of the radial grid, then solve the
    series-coefficient system induced by the leading orders r^{m+n+2alpha} of
    the product expansions."""
    with mp.workdps(WORK_DPS):
        power, series = _taylor_design(tuple(pairs), profile.radii.tobytes(), d, mp.prec)
        n_inner = len(power.rows)
        parts = _mp_parts(profile.values[:n_inner])
        if d != 2:  # absorb the prefactor r^{-(d-2)}, which is 1 at d = 2
            parts = [[v * mpf(r) ** (d - 2) for v, r in zip(p, profile.radii)] for p in parts]
        coef, _ = _mp_apply(power, parts)
        (gr, gi), _ = _mp_apply(series, coef)
    gamma = {p: complex(float(gr[j]), float(gi[j])) for j, p in enumerate(pairs)}
    return UnmixReport(profile.frequency, gamma, 0.0, series.cond, "taylor")


@lru_cache(maxsize=_DESIGN_TABLE_SIZE)
def _lstsq_design(pairs, radii, d, prec):
    """The _mp_factor of the "lstsq" design of pairs on the radii (bytes) at
    precision prec."""
    with mp.workprec(prec):
        return _mp_factor(_mp_columns(pairs, np.frombuffer(radii), d), pairs)


def _lstsq_unmix(profile, pairs, d):
    """The 50-digit least-squares report for one profile."""
    with mp.workdps(WORK_DPS):
        f = _lstsq_design(tuple(pairs), profile.radii.tobytes(), d, mp.prec)
        (gr, gi), (res_r, res_i) = _mp_apply(f, _mp_parts(profile.values))
    gamma = {p: complex(float(gr[j]), float(gi[j])) for j, p in enumerate(pairs)}
    return UnmixReport(profile.frequency, gamma, math.hypot(res_r, res_i), f.cond, "lstsq")


def _f64_columns(pairs, radii, d):
    """Column functions 2 pi r^{-(d-2)} J_{nu(m)} J_{nu(n)} at the radii, from the
    shared double Bessel rows, as a (radius, pair) array."""
    jrow = {m: bessel_row(nu_order(m, d), radii) for m in sorted({m for p in pairs for m in p})}
    pref = 2 * np.pi / radii ** (d - 2)
    return np.column_stack([pref * jrow[m] * jrow[n] for m, n in pairs])


def _f64_factor(A, labels):
    """Factorize a double design A: its columns are scaled to unit norm and
    factorized by numpy QR. Returns the read-only (Q, R, unit-norm columns in
    np.longdouble, column norms) and the condition estimate max|R_jj| / min|R_jj|
    (inf for a vanishing column or a singular R; a system with fewer rows than
    columns is padded with zero rows, so its R diagonal shows the rank it lacks).
    Above CONDITION_WARN ExtractionRankError names the labels of the columns
    whose |R_jj| falls below max|R_jj| / CONDITION_WARN."""
    rows, ncols = A.shape
    norms = np.linalg.norm(A, axis=0)
    U = A / np.where(norms > 0, norms, 1.0)
    Q, R = np.linalg.qr(U if rows >= ncols else np.vstack([U, np.zeros((ncols - rows, ncols))]))
    diag = np.abs(np.diag(R))
    cond = float(diag.max() / diag.min()) if diag.min() > 0 else math.inf
    if not cond <= CONDITION_WARN:
        weak = np.flatnonzero(diag < diag.max() / CONDITION_WARN)
        raise ExtractionRankError([labels[j] for j in weak], cond)
    return tuple(map(_read_only, (Q, R, U.astype(np.longdouble), norms))), cond


def _f64_apply(factor, B):
    """Least squares A Y ~= B through an _f64_factor of A, one column of Y per
    column of B; one refinement step takes the residual B - A Y with
    np.longdouble accumulation and adds R^-1 Q^T of it to Y. Returns (Y,
    residual norms per column of B, condition estimate)."""
    (Q, R, Ul, norms), cond = factor
    Y = np.linalg.solve(R, Q.T @ B)
    resid = B - Ul @ Y
    Y = Y + np.linalg.solve(R, Q.T @ resid.astype(float))
    resid = np.sqrt(np.sum((B - Ul @ Y) ** 2, axis=0))
    return Y / norms[:, None], resid.astype(float), cond


@lru_cache(maxsize=_DESIGN_TABLE_SIZE)
def _float64_design(pairs, radii, d):
    """The _f64_factor of the "float64" design of pairs on the radii (bytes)."""
    return _f64_factor(_f64_columns(pairs, np.frombuffer(radii), d), pairs)


def _float64_unmix(profile, pairs, d):
    """The "float64" report for one profile, from the double Bessel values."""
    values = np.asarray(profile.values, dtype=complex)
    x, resid, cond = _f64_apply(_float64_design(tuple(pairs), profile.radii.tobytes(), d),
                                np.column_stack([values.real, values.imag]))
    gamma = {p: complex(x[j, 0], x[j, 1]) for j, p in enumerate(pairs)}
    return UnmixReport(profile.frequency, gamma, math.hypot(*resid), cond, "float64")


def radial_unmix(profile: RadialProfile, M: int, d: int, method: str = "lstsq") -> UnmixReport:
    """Recover the symmetrized pair coefficients feeding one radial profile.

    method "lstsq": least squares over the radial grid through an orthogonal
    factorization at WORK_DPS digits; method "taylor": triangular Taylor
    matching about r = 0, at WORK_DPS digits; method "float64": the same least
    squares as "lstsq" in double precision, from the double Bessel values,
    with one refinement step whose residual is accumulated in np.longdouble
    (the default of extract_magnitude_data for double samples). A "float64"
    solve whose design has a vanishing column, a singular R or a condition
    estimate above CONDITION_WARN raises ExtractionRankError with that
    estimate, as the 50-digit methods do for the columns they lose. A d other
    than profile.dim raises ValueError.
    """
    if d != profile.dim:
        raise ValueError(f"profile is for d = {profile.dim}, got d = {d}")
    q = profile.frequency
    pairs = compatible_pairs(q, M, d)
    if not pairs:
        norm = max((abs(complex(v)) for v in profile.values), default=0.0)
        return UnmixReport(q, {}, norm, 1.0, method,
                           warnings=["no compatible pairs; residual is the profile norm"])
    if len(profile.radii) < len(pairs):
        raise ValueError(
            f"profile {q}: {len(profile.radii)} radial nodes cannot determine {len(pairs)} pairs"
        )
    unmix = {"taylor": _taylor_unmix, "float64": _float64_unmix, "lstsq": _lstsq_unmix}.get(method)
    if unmix is None:
        raise ValueError(f"unknown unmixing method {method!r}")
    report = unmix(profile, pairs, d)
    if report.condition > CONDITION_WARN:
        report.warnings.append(f"condition estimate {report.condition:.2e} above threshold")
    return report


# --------------------------------------------------------------------------
# assembly


def _assemble_2d(reports, M, grid) -> MagnitudeData:
    table = np.zeros((M + 1, M + 1, 4 * M + 1), dtype=complex)
    for rep in reports:
        q = rep.frequency
        for (m, n), gamma in rep.gamma.items():
            coeff = gamma / (1.0 if m == n else 2.0)
            # at q = 0 the second write wins
            table[m, n, 2 * M - q] = np.conj(coeff)
            table[m, n, 2 * M + q] = coeff
    return MagnitudeData(2, grid, table)


def _gegenbauer_triples(M, d):
    """beta[m, n, q], m, n <= M, q <= 2M: the linearization coefficients of the
    C^lam_m C^lam_n, lam = d/2 - 1, from one polar rule exact to degree 4M + 1."""
    t, w, inv_norm = _polar_rule(d, 2 * M + 1)
    C = np.array([gegenbauer(q, d / 2 - 1, t) for q in range(2 * M + 1)])
    return np.einsum("mi,ni,qi->mnq", C[:M + 1], C[:M + 1], C * w) * inv_norm


def _extract_zonal_joint(profiles, M, grid):
    """Joint least squares over all Gegenbauer components for the products
    Re(a_m conj(a_n)) of a zonal d >= 3 field, in double precision
    (angular_decompose rounds d >= 3 profiles to float).

    The per-component radial families contain exactly dependent Bessel-product
    quadruples (see radial_unmix), so single components cannot be unmixed in
    isolation; the coupled system across components is well conditioned.
    _f64_factor raises ExtractionRankError when it is not.
    """
    d = grid.dim
    pairs = [(m, n) for m in range(M + 1) for n in range(m, M + 1)]
    iu = np.triu_indices(M + 1)  # the pairs, in the same order
    used, rest = profiles[:2 * M + 1], profiles[2 * M + 1:]  # frequency = index
    beta = _gegenbauer_triples(M, d)
    # pair (m, n) feeds component q twice if m != n, and only where compatible_pairs allows
    mult = np.zeros((len(used), len(pairs)))
    for q in range(len(used)):
        for m, n in compatible_pairs(q, M, d):
            mult[q, pairs.index((m, n))] = (1.0 if m == n else 2.0) * beta[m, n, q]
    # rows: radii within each used component; columns: pairs
    cols = mult[:, None, :] * _f64_columns(pairs, used[0].radii, d)
    rhs = np.concatenate([np.asarray(p.values, dtype=float) for p in used])
    x, resid, cond = _f64_apply(_f64_factor(cols.reshape(len(rhs), len(pairs)), pairs),
                                rhs[:, None])
    reports = [UnmixReport(-1, dict(zip(pairs, x[:, 0].tolist())), float(resid[0]), cond,
                           "joint-float64")]
    for prof in rest:
        norm = max((abs(complex(v)) for v in prof.values), default=0.0)
        reports.append(UnmixReport(prof.frequency, {}, norm, 1.0, "joint-float64",
                                   warnings=[] if norm < 1e-12 else
                                   [f"component beyond 2*max_degree has norm {norm:.2e}"]))
    gamma = np.zeros((M + 1, M + 1))
    gamma[iu] = x[:, 0]
    zonal = np.array([gegenbauer(m, d / 2 - 1, grid.polar_t) for m in range(M + 1)])
    profile = gamma[:, :, None] * zonal[:, None, :] * zonal[None, :, :]
    return MagnitudeData(d, grid, np.repeat(profile, grid.azimuth_count, axis=2)), reports


def estimate_max_degree(samples: MagnitudeGrid, d: int) -> int:
    """Estimate the truncation degree, from the active angular bandwidth up.

    For d = 2 it is the first candidate whose largest "float64" unmixing
    residual, over the rounding budget FIT_BUDGET * eps * scale * sqrt(radii /
    angles), is a misfit of at most 1. A candidate that too few angles or radii
    cannot resolve, whose design loses rank, or whose misfit falls less than
    tenfold raises DegreeUnresolvableError with the numbers that decided. For
    d >= 3 zonal data the diagonals land in the top Gegenbauer component, so the
    bandwidth guess is the degree, and check_truncation refuses content above 2M.
    """
    profiles = angular_decompose(samples, d)
    scale = float(np.max(np.abs(np.asarray(samples.values, dtype=float)))) + 1.0
    peaks = {p.frequency: float(np.max(np.abs(np.asarray(p.values, dtype=complex))))
             for p in profiles}
    act = [q for q, peak in peaks.items() if peak > 1e-10 * scale]
    M = max((q + 1) // 2 for q in act) if act else 0
    if d != 2:
        check_truncation(peaks, M, scale, "the estimate")
        return M
    budget = FIT_BUDGET * np.finfo(float).eps * scale * math.sqrt(
        len(samples.radii) / len(samples.grid))
    tried, prev = "", None
    while True:
        _check_angles(samples.grid, M)
        try:
            misfit = max(radial_unmix(p, M, 2, "float64").residual for p in profiles) / budget
        except (ValueError, ExtractionRankError) as exc:
            raise DegreeUnresolvableError(f"degree {M} unresolvable: {tried}{exc}") from exc
        if misfit <= 1:
            return M
        if prev is not None and misfit > prev / 10:
            raise DegreeUnresolvableError(
                f"degree {M} unresolvable: {tried}its own fit is {misfit:.3g} times the "
                "budget, less than a tenfold gain")
        tried = (f"the estimate is {M}, whose fit is {misfit:.3g} times the rounding "
                 f"budget {budget:.3e}; ")
        prev, M = misfit, M + 1


def _check_angles(grid, M):
    """DegreeUnresolvableError when the d = 2 ``grid`` has fewer than the 4M + 1
    angles that the frequencies of degree M need."""
    if len(grid) < 4 * M + 1:
        raise DegreeUnresolvableError(
            f"degree {M} unresolvable: its frequencies up to {2 * M} need at least "
            f"{4 * M + 1} angles, the grid has {len(grid)}"
        )


def check_truncation(peaks: dict, M: int, scale: float, source: str):
    """DegreeUnresolvableError when a component q > 2M of ``peaks`` (component ->
    largest modulus over the radii, the residual of its report beyond 2M) is
    above TRUNCATION_FLOOR * scale; ``source`` names where M came from. It
    serves the d >= 3 estimate and a degree given to the CLI."""
    floor = TRUNCATION_FLOOR * scale
    above = {q: peak for q, peak in peaks.items() if q > 2 * M and peak > floor}
    if above:
        q = max(above, key=above.get)
        raise DegreeUnresolvableError(
            f"degree {M + 1} unresolvable: {source} is {M}, but angular component "
            f"{q} holds {above[q]:.3e}, above the rounding floor {floor:.3e} of "
            f"components beyond {2 * M}"
        )


def extract_magnitude_data(
    samples: MagnitudeGrid, d: int, M: int | None = None, method: str | None = None
):
    """Recover the full magnitude data from gridded |u|^2 samples.

    Returns (MagnitudeData, list of UnmixReport). The reports carry residual
    norms and condition estimates; a truncation degree below the true content
    shows up as an elevated residual rather than failing silently.

    d = 2 profiles are unmixed with ``method`` (see radial_unmix); by default,
    "float64" for double samples and "lstsq" for object arrays of mp numbers.
    d >= 3 zonal data take one joint double-precision solve across
    components, and a ``method`` given for them raises ValueError.
    """
    if d >= 3 and method is not None:
        raise ValueError(
            f"method={method!r} does not apply to d = {d} data: "
            f"d = {d} zonal data take one joint double-precision solve"
        )
    if M is None:
        M = estimate_max_degree(samples, d)
    check_degree(M)
    profiles = angular_decompose(samples, d)
    if d == 2:
        _check_angles(samples.grid, M)
        if method is None:
            method = "lstsq" if samples.values.dtype == object else "float64"
        reports = [radial_unmix(prof, M, d, method=method) for prof in profiles]
        return _assemble_2d(reports, M, samples.grid), reports
    return _extract_zonal_joint(profiles, M, samples.grid)
