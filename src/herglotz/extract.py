"""Recovery of the magnitude data Re c_{m,n} from gridded samples of |u|^2.

The pipeline is: angular decomposition of the samples into per-frequency
(d = 2) or per-Gegenbauer-degree (d = 3, zonal) radial profiles, followed by a
radial unmixing of each profile over the Bessel-product dictionary

    g_q(r) ~= sum_{(m,n) compatible with q} gamma_{m,n} 2 pi r^{-(d-2)}
              J_{nu(m)}(r) J_{nu(n)}(r).

The design matrices are generalized Vandermonde systems whose conditioning
grows steeply with the truncation degree. Double-precision samples are
unmixed in double precision: one kernel (_f64_lstsq) scales the columns to
unit norm, factorizes them with numpy QR and takes one refinement step whose
residual is accumulated in np.longdouble. It serves the d = 2 "float64"
profile solves and the d = 3 joint solve, and it raises ExtractionRankError,
with the condition estimate and the weak pairs, when that estimate exceeds
CONDITION_WARN. Object arrays of mp samples, and the "lstsq" and "taylor"
methods on request, take the 50-digit solves, which work in fixed point: the
columns and the right-hand side become Python integers scaled by
2^(mp.prec + GUARD_BITS), and one least-squares kernel (_mp_qr_solve) serves
both. They take their precision from mpmath's global context: parallelize
across processes, not threads.

estimate_max_degree reads only residuals, so it unmixes with the "float64"
method whatever the samples' precision; in both dimensions it raises
DegreeUnresolvableError when angular content lies above twice its estimate.
"""

import math
from dataclasses import dataclass, field as dc_field
from operator import mul

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_div, mpf_shift, round_nearest, to_fixed

from .field import MagnitudeData, MagnitudeGrid, nu_order
from .specfun import bessel_j, bessel_j_mp, gegenbauer

WORK_DPS = 50
# fraction bits beyond mp.prec carried by the fixed-point least-squares solve
GUARD_BITS = 64
CONDITION_WARN = 1e10
# angular components beyond 2M above this multiple of the sample scale are
# content of a higher degree: 64 eps, the rounding level of the double DFT
TRUNCATION_FLOOR = 64 * np.finfo(float).eps
# highest degree estimate_max_degree tries
DEGREE_CAP = 16


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
    """d = 3 samples depend on the azimuth, so no sampled extraction applies."""


@dataclass
class RadialProfile:
    """One angular component of the magnitude samples as a function of radius."""

    dim: int
    frequency: int  # angular frequency (d=2) or Gegenbauer degree (d=3)
    radii: np.ndarray
    values: np.ndarray  # complex (d=2) or real (d=3); may be an mpf object array

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if np.any(self.radii <= 0) or np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be positive and strictly increasing")


@dataclass
class UnmixReport:
    """Result of unmixing one radial profile."""

    frequency: int
    gamma: dict  # (m, n) -> complex (d=2) or float (d=3)
    residual: float
    condition: float
    method: str
    warnings: list = dc_field(default_factory=list)


def radial_grid(count: int, eta: float = 1.0, inner_frac: float = 0.05) -> np.ndarray:
    """Chebyshev-spaced radial nodes in (inner_frac * eta, eta]."""
    if count < 1:
        raise ValueError("need at least one radial node")
    k = np.arange(count)
    x = np.cos((2 * k + 1) * np.pi / (2 * count))
    lo = inner_frac * eta
    return np.sort(lo + (eta - lo) * (x + 1) / 2)


# --------------------------------------------------------------------------
# angular decomposition


def _is_uniform_angles(angles, count) -> bool:
    expected = 2 * np.pi * np.arange(count) / count
    return np.allclose(np.sort(angles % (2 * np.pi)), expected, atol=1e-9)


def angular_decompose(samples: MagnitudeGrid, d: int) -> list:
    """Split magnitude samples into per-frequency radial profiles.

    d=2 requires a uniform angular grid (the transform is an exact DFT for
    band-limited data); d=3 requires zonal data on a Gauss grid, decomposed in
    Legendre components of t = cos(polar angle).
    """
    if d != samples.dim:
        raise ValueError("dimension mismatch with the sample grid")
    if d == 2:
        grid = samples.grid
        if grid.angles is None or not _is_uniform_angles(grid.angles, len(grid)):
            raise ValueError("d=2 extraction requires a uniform angular grid")
        Q = len(grid)
        vals = samples.values
        high = vals.dtype == object
        qmax = (Q - 1) // 2
        profiles = []
        with mp.workdps(WORK_DPS):
            if high:
                for q in range(qmax + 1):
                    twiddle = [mp.expjpi(mpf(-2 * q * k) / Q) for k in range(Q)]
                    rows = np.empty(len(samples.radii), dtype=object)
                    rows[:] = [mp.fdot(row, twiddle) / Q for row in vals.tolist()]
                    profiles.append(RadialProfile(2, q, samples.radii, rows))
            else:
                coef = np.fft.fft(np.asarray(vals, dtype=float), axis=1) / Q
                for q in range(qmax + 1):
                    profiles.append(RadialProfile(2, q, samples.radii, coef[:, q]))
        return profiles
    if d == 3:
        grid = samples.grid
        if grid.polar_t is None or grid.azimuth_count == 0:
            raise ValueError("d=3 extraction requires the Gauss product grid")
        vals = np.asarray(samples.values, dtype=float)
        naz = grid.azimuth_count
        npol = len(grid.polar_t)
        cube = vals.reshape(len(samples.radii), npol, naz)
        spread = np.abs(cube - cube.mean(axis=2, keepdims=True)).max()
        threshold = 1e-8 * (1 + np.abs(vals).max())
        if spread > threshold:
            raise NonZonalDataError(
                f"d=3 samples are not zonal: azimuthal spread {spread:.3e} exceeds "
                f"1e-8 * (1 + max|values|) = {threshold:.3e}; per-component Bessel-product "
                "dictionaries are rank-deficient for q >= 2, so only zonal d = 3 data "
                "can be extracted from samples"
            )
        zone = cube.mean(axis=2)  # (nr, npol)
        t, w = np.polynomial.legendre.leggauss(npol)
        qmax = npol - 1
        profiles = []
        for q in range(qmax + 1):
            Pq = gegenbauer(q, 0.5, t)
            proj = (zone * (Pq * w)[None, :]).sum(axis=1) * (2 * q + 1) / 2.0
            profiles.append(RadialProfile(3, q, samples.radii, proj))
        return profiles
    raise ValueError(f"extraction is implemented for d in {{2, 3}}, got {d}")


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
    cols = []
    for (m, n) in pairs:
        cols.append([pref[i] * jcache[m][i] * jcache[n][i] for i in range(len(radii))])
    return cols


def _fixed(values, frac):
    """mpf values as integers floor(v * 2^(frac - e)), with 2^e the smallest
    power of two above every |v| (e = 0 for all zeros); returns (ints, e)."""
    raw = [v._mpf_ for v in values]
    e = max((exp + bc for _, man, exp, bc in raw if man), default=0)
    return [to_fixed(s, frac - e) for s in raw], e


def _dot(a, b):
    return sum(map(mul, a, b))


def _mp_qr_solve(cols, rhs):
    """Least squares via modified Gram-Schmidt (two passes) on normalized columns.

    Each column, and the right-hand side, is scaled by a power of two taken from
    its largest entry and held as integers with F = mp.prec + GUARD_BITS
    fraction bits; the factorization and the back substitution run on those
    integers. Returns (solution as mpf at the working precision, condition
    estimate from the R diagonal, residual norm, rank-deficient columns).
    """
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
        qcols.append([(x << F) // nr for x in v] if nr else v)
    diag = [R[j][j] for j in range(ncols)]
    dmax = max(diag)
    deficient = [j for j, dj in enumerate(diag) if dj * 10 ** (mp.dps - 8) <= dmax]
    cond = dmax / min(diag) if min(diag) > 0 else math.inf
    b, eb = _fixed(rhs, F)
    x = [0] * ncols
    for i in range(ncols - 1, -1, -1):
        if i not in deficient:
            s = _dot(qcols[i], b) - _dot(R[i][i + 1:], x[i + 1:])
            x[i] = s // R[i][i]
    fit = [_dot(row, x) >> F for row in zip(*unit)]
    resid = math.isqrt(sum((bt - ft) ** 2 for bt, ft in zip(b, fit)))
    # entry j of the solution is x_j / N_j * 2^(eb - e_j), rounded once
    sol = [
        mp.make_mpf(mpf_shift(mpf_div(from_int(xj), from_int(nr), mp.prec, round_nearest), eb - e))
        if nr else mpf(0)
        for xj, nr, (_, e) in zip(x, norms, scaled)
    ]
    return sol, cond, float(mp.ldexp(resid, eb - F)), deficient


def _mp_parts(values):
    """Real and imaginary parts of profile values as mpf lists; object arrays of
    mp numbers convert without rounding to double."""
    if np.asarray(values).dtype == object:
        return [mpf(v.real) for v in values], [mpf(v.imag) for v in values]
    arr = np.asarray(values)
    return [mpf(float(v)) for v in arr.real], [mpf(float(v)) for v in arr.imag]


def _taylor_gamma(pairs, profile, d):
    """Triangular Taylor matching: fit even powers of r about 0 on the inner
    third of the radial grid, then solve the series-coefficient system induced
    by the leading orders r^{m+n+2alpha} of the product expansions."""
    alpha = (d - 2) / 2.0
    radii = profile.radii
    n_inner = max(len(radii) // 3, min(len(radii), 8))
    rin = [mpf(r) for r in radii[:n_inner]]
    lead = {p: p[0] + p[1] for p in pairs}
    lmin = min(lead.values())
    lmax = max(lead.values())
    # The margin beyond the highest leading order pushes the aliasing of the
    # unmodeled (factorially decaying) series tail below the solve's noise
    # floor; same-leading-order blocks are separated only by these rows.
    K = min((lmax - lmin) // 2 + 1 + 12, n_inner - 1)
    # power columns r^{lmin + 2k}; the d-dependent prefactor r^{-(d-2)} is
    # absorbed by multiplying the profile by r^{d-2}
    re, im = _mp_parts(profile.values[:n_inner])
    re = [re[i] * rin[i] ** (d - 2) for i in range(n_inner)]
    im = [im[i] * rin[i] ** (d - 2) for i in range(n_inner)]
    pcols = [[r ** (lmin + 2 * k) for r in rin] for k in range(K)]
    cr, _, _, _ = _mp_qr_solve(pcols, re)
    ci, _, _, _ = _mp_qr_solve(pcols, im)
    # series matrix S[k][j]: coefficient of r^(lmin+2k) in 2 pi J_{nu(m)} J_{nu(n)}
    S = [[mpf(0)] * len(pairs) for _ in range(K)]
    for j, (m, n) in enumerate(pairs):
        s = m + n + 2 * alpha
        nu1, nu2 = m + alpha, n + alpha
        t = 2 * mp.pi / (mp.gamma(nu1 + 1) * mp.gamma(nu2 + 1)) / mpf(2) ** s
        base = (m + n - lmin) // 2
        kk = 0
        while base + kk < K:
            S[base + kk][j] = t
            t = -t / 4 * (s + 2 * kk + 1) * (s + 2 * kk + 2) / (
                (kk + 1) * (nu1 + kk + 1) * (nu2 + kk + 1) * (s + kk + 1)
            )
            kk += 1
    s_cols = [[S[k][j] for k in range(K)] for j in range(len(pairs))]
    gr, cond, _, defic = _mp_qr_solve(s_cols, cr)
    gi, _, _, _ = _mp_qr_solve(s_cols, ci)
    gamma = {
        p: complex(float(gr[j]), float(gi[j])) for j, p in enumerate(pairs)
    }
    return gamma, cond, defic


def _lstsq_unmix(profile, pairs, d):
    """The 50-digit least-squares report for one profile."""
    with mp.workdps(WORK_DPS):
        cols = _mp_columns(pairs, profile.radii, d)
        re, im = _mp_parts(profile.values)
        gr, cond, res_r, defic = _mp_qr_solve(cols, re)
        gi, _, res_i, _ = _mp_qr_solve(cols, im)
    if defic:
        raise ExtractionRankError([pairs[j] for j in defic])
    gamma = {p: complex(float(gr[j]), float(gi[j])) for j, p in enumerate(pairs)}
    return UnmixReport(profile.frequency, gamma, math.hypot(res_r, res_i), cond, "lstsq")


def _f64_columns(pairs, radii, d):
    """Column functions 2 pi r^{-(d-2)} J_{nu(m)} J_{nu(n)} at the radii, from the
    double Bessel values, as a (radius, pair) array."""
    jrow = {m: bessel_j(nu_order(m, d), radii) for m in sorted({m for p in pairs for m in p})}
    pref = 2 * np.pi / radii ** (d - 2)
    return np.column_stack([pref * jrow[m] * jrow[n] for m, n in pairs])


def _f64_lstsq(A, B, labels):
    """Least squares A Y ~= B in double precision, one column of Y per column of B.

    The columns of A are scaled to unit norm and factorized by numpy QR; the
    condition estimate is max|R_jj| / min|R_jj| (inf for a vanishing column or
    a singular R; a system with fewer rows than columns is padded with zero
    rows, so its R diagonal shows the rank it lacks). Above CONDITION_WARN the
    system is not solved: ExtractionRankError names the labels of the columns
    whose |R_jj| falls below max|R_jj| / CONDITION_WARN. Otherwise one
    refinement step takes the residual B - A Y with np.longdouble accumulation
    and adds R^-1 Q^T of it to Y.

    Returns (Y, residual norms per column of B, condition estimate).
    """
    rows, ncols = A.shape
    norms = np.linalg.norm(A, axis=0)
    U = A / np.where(norms > 0, norms, 1.0)
    Q, R = np.linalg.qr(U if rows >= ncols else np.vstack([U, np.zeros((ncols - rows, ncols))]))
    diag = np.abs(np.diag(R))
    cond = float(diag.max() / diag.min()) if diag.min() > 0 else math.inf
    if not cond <= CONDITION_WARN:
        weak = np.flatnonzero(diag < diag.max() / CONDITION_WARN)
        raise ExtractionRankError([labels[j] for j in weak], cond)
    Y = np.linalg.solve(R, Q.T @ B)
    Ul = U.astype(np.longdouble)
    resid = B - Ul @ Y
    Y = Y + np.linalg.solve(R, Q.T @ resid.astype(float))
    resid = np.sqrt(np.sum((B - Ul @ Y) ** 2, axis=0))
    return Y / norms[:, None], resid.astype(float), cond


def _float64_unmix(profile, pairs, d):
    """The "float64" report for one profile, from the double Bessel values."""
    values = np.asarray(profile.values, dtype=complex)
    x, resid, cond = _f64_lstsq(_f64_columns(pairs, profile.radii, d),
                                np.column_stack([values.real, values.imag]), pairs)
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
    estimate, as the 50-digit methods do for the columns they lose.
    """
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
    if method == "taylor":
        with mp.workdps(WORK_DPS):
            gamma, cond, defic = _taylor_gamma(pairs, profile, d)
        if defic:
            raise ExtractionRankError([pairs[j] for j in defic])
        report = UnmixReport(q, gamma, 0.0, cond, method)
    elif method == "float64":
        report = _float64_unmix(profile, pairs, d)
    elif method == "lstsq":
        report = _lstsq_unmix(profile, pairs, d)
    else:
        raise ValueError(f"unknown unmixing method {method!r}")
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


def _legendre_triples(M):
    """beta[m, n, q] = (2q+1)/2 * int_{-1}^{1} P_m P_n P_q dt for m, n <= M and
    q <= 2M (the linearization coefficients), from one Gauss-Legendre rule
    exact to degree 4M + 1."""
    t, w = np.polynomial.legendre.leggauss(2 * M + 1)
    P = np.array([gegenbauer(q, 0.5, t) for q in range(2 * M + 1)])
    half = (2 * np.arange(2 * M + 1) + 1) / 2.0
    return np.einsum("mi,ni,qi->mnq", P[:M + 1], P[:M + 1], P * w) * half


def _extract_3d_joint(profiles, M, grid):
    """Joint least squares over all Gegenbauer components for the products
    Re(a_m conj(a_n)) of a zonal field, in double precision (angular_decompose
    rounds d = 3 profiles to float).

    The per-component radial families contain exactly dependent Bessel-product
    quadruples (see radial_unmix), so single components cannot be unmixed in
    isolation; the coupled system across components is well conditioned.
    _f64_lstsq raises ExtractionRankError when it is not.
    """
    pairs = [(m, n) for m in range(M + 1) for n in range(m, M + 1)]
    iu = np.triu_indices(M + 1)  # the pairs, in the same order
    radii = profiles[0].radii
    used = [p for p in profiles if p.frequency <= 2 * M]
    rest = [p for p in profiles if p.frequency > 2 * M]
    mult = _legendre_triples(M)[iu] * np.where(iu[0] == iu[1], 1.0, 2.0)[:, None]
    mult[np.abs(mult) < 1e-13] = 0.0
    # rows: radii within each used component; columns: pairs
    cols = mult[:, [p.frequency for p in used]].T[:, None, :] * _f64_columns(pairs, radii, 3)
    rhs = np.concatenate([np.asarray(p.values, dtype=float) for p in used])
    x, resid, cond = _f64_lstsq(cols.reshape(len(rhs), len(pairs)), rhs[:, None], pairs)
    reports = [UnmixReport(-1, dict(zip(pairs, x[:, 0].tolist())), float(resid[0]), cond,
                           "joint-float64")]
    for prof in rest:
        norm = max((abs(complex(v)) for v in prof.values), default=0.0)
        reports.append(UnmixReport(prof.frequency, {}, norm, 1.0, "joint-float64",
                                   warnings=[] if norm < 1e-12 else
                                   [f"component beyond 2*max_degree has norm {norm:.2e}"]))
    gamma = np.zeros((M + 1, M + 1))
    gamma[iu] = x[:, 0]
    legendre = np.array([gegenbauer(m, 0.5, grid.polar_t) for m in range(M + 1)])
    profile = gamma[:, :, None] * legendre[:, None, :] * legendre[None, :, :]
    return MagnitudeData(3, grid, np.repeat(profile, grid.azimuth_count, axis=2)), reports


def estimate_max_degree(samples: MagnitudeGrid, d: int) -> int:
    """Estimate the truncation degree from the active angular bandwidth.

    For d = 2 the estimate is refined upward, up to DEGREE_CAP, while the
    unmixing residual keeps improving; only the residuals are read, so the
    candidate unmixings use the "float64" method. For d = 3 zonal data the
    diagonals always land in the top Gegenbauer component, so the bandwidth
    estimate is the degree. In both, an angular component above 2M that
    exceeds TRUNCATION_FLOOR * scale after the estimate M is content a
    degree-M field cannot hold: DegreeUnresolvableError, rather than a
    silently truncated degree.
    """
    profiles = angular_decompose(samples, d)
    scale = float(np.max(np.abs(np.asarray(samples.values, dtype=float)))) + 1.0
    peaks = {p.frequency: float(np.max(np.abs(np.asarray(p.values, dtype=complex))))
             for p in profiles}
    act = [q for q, peak in peaks.items() if peak > 1e-10 * scale]
    guess = max((q + 1) // 2 for q in act) if act else 0
    M = guess if d == 3 else _residual_degree(profiles, guess, scale)
    floor = TRUNCATION_FLOOR * scale
    above = {q: peak for q, peak in peaks.items() if q > 2 * M and peak > floor}
    if above:
        q = max(above, key=above.get)
        raise DegreeUnresolvableError(
            f"degree {M + 1} unresolvable: the estimate is {M}, but angular component "
            f"{q} holds {above[q]:.3e}, above the rounding floor {floor:.3e} of "
            f"components beyond {2 * M}"
        )
    return M


def _residual_degree(profiles, guess, scale):
    """The d = 2 degree, from guess upward, whose float64 unmixing residual is
    below 1e-8 * scale or stops improving tenfold."""
    prev = None
    for M in range(guess, DEGREE_CAP + 1):
        try:
            _, total = _extract_with_residual(profiles, 2, M, "float64")
        except (ValueError, ExtractionRankError):
            break
        if total <= 1e-8 * scale:
            return M
        if prev is not None and total > prev / 10:
            return M - 1 if M > guess else M
        prev = total
    return guess


def _extract_with_residual(profiles, d, M, method):
    reports = []
    total = 0.0
    for prof in profiles:
        rep = radial_unmix(prof, M, d, method=method)
        reports.append(rep)
        total = max(total, rep.residual)
    return reports, total


def extract_magnitude_data(
    samples: MagnitudeGrid, d: int, M: int | None = None, method: str | None = None
):
    """Recover the full magnitude data from gridded |u|^2 samples.

    Returns (MagnitudeData, list of UnmixReport). The reports carry residual
    norms and condition estimates; a truncation degree below the true content
    shows up as an elevated residual rather than failing silently.

    d = 2 profiles are unmixed with ``method`` (see radial_unmix); by default,
    "float64" for double samples and "lstsq" for object arrays of mp numbers.
    d = 3 zonal data take one joint double-precision solve across components.
    """
    if M is None:
        M = estimate_max_degree(samples, d)
    profiles = angular_decompose(samples, d)
    if d == 2:
        if method is None:
            method = "lstsq" if samples.values.dtype == object else "float64"
        reports, _ = _extract_with_residual(profiles, d, M, method)
        data = _assemble_2d(reports, M, samples.grid)
        return data, reports
    return _extract_3d_joint(profiles, M, samples.grid)
