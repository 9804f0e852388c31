"""Recovery of the magnitude data Re c_{m,n} from gridded samples of |u|^2.

The pipeline is: angular decomposition of the samples into per-frequency
(d = 2) or per-Gegenbauer-degree (d = 3, zonal) radial profiles, followed by a
radial unmixing of each profile over the Bessel-product dictionary

    g_q(r) ~= sum_{(m,n) compatible with q} gamma_{m,n} 2 pi r^{-(d-2)}
              J_{nu(m)}(r) J_{nu(n)}(r).

The per-profile design matrices are generalized Vandermonde systems whose
conditioning grows steeply with the truncation degree, so the extraction's
profile solves run at WORK_DPS significant digits; double-precision input
samples then limit the attainable accuracy, not the solver. These solves work
in fixed point: the columns and the right-hand side become Python integers
scaled by 2^(mp.prec + GUARD_BITS), and one least-squares kernel
(_mp_qr_solve) serves the lstsq, taylor and d = 3 joint unmixing. They take
their precision from mpmath's global context: parallelize across processes,
not threads.

estimate_max_degree reads only residuals, so it unmixes with the "float64"
method: the same least squares in double precision, which hands any profile
whose design condition exceeds CONDITION_WARN to the 50-digit solve. The
extraction at the chosen degree is always the 50-digit one.
"""

import math
from dataclasses import dataclass, field as dc_field
from operator import mul

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_div, mpf_shift, round_nearest, to_fixed

from .field import MagnitudeData, MagnitudeGrid, nu_order
from .specfun import bessel_j, bessel_j_mp

WORK_DPS = 50
# fraction bits beyond mp.prec carried by the fixed-point least-squares solve
GUARD_BITS = 64
CONDITION_WARN = 1e10


class ExtractionRankError(RuntimeError):
    """Design matrix lost column rank; names the colliding pairs."""

    def __init__(self, pairs):
        super().__init__(f"rank-deficient unmixing system; colliding pairs: {pairs}")
        self.pairs = pairs


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
            Pq = _legendre_values(q, t)
            proj = (zone * (Pq * w)[None, :]).sum(axis=1) * (2 * q + 1) / 2.0
            profiles.append(RadialProfile(3, q, samples.radii, proj))
        return profiles
    raise ValueError(f"extraction is implemented for d in {{2, 3}}, got {d}")


def _legendre_values(q, t):
    t = np.asarray(t, dtype=float)
    if q == 0:
        return np.ones_like(t)
    pm, p = np.ones_like(t), t.copy()
    for k in range(1, q):
        pm, p = p, ((2 * k + 1) * t * p - k * pm) / (k + 1)
    return p


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


def _bessel_rows(orders, radii, d):
    """J_{nu(m)} at the radii for each order m, and the prefactors
    2 pi r^{-(d-2)}, as mpf lists at the working precision."""
    jcache = {
        m: [bessel_j_mp(nu_order(m, d), mpf(r)) for r in radii] for m in orders
    }
    pref = [2 * mp.pi / mpf(r) ** (d - 2) for r in radii]
    return jcache, pref


def _mp_columns(pairs, radii, d):
    """Column functions 2 pi r^{-(d-2)} J_{nu(m)} J_{nu(n)} at the radii, as mpf lists."""
    jcache, pref = _bessel_rows(sorted({m for p in pairs for m in p}), radii, d)
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
    q = profile.frequency
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


def _float64_unmix(profile, pairs, d):
    """Least squares in double precision through numpy QR of the unit-norm
    columns, or None when a column vanishes, R is singular or its condition
    estimate max|R_jj| / min|R_jj| exceeds CONDITION_WARN."""
    radii = profile.radii
    jrow = {m: bessel_j(nu_order(m, d), radii) for m in sorted({m for p in pairs for m in p})}
    pref = 2 * np.pi / radii ** (d - 2)
    A = np.column_stack([pref * jrow[m] * jrow[n] for m, n in pairs])
    norms = np.linalg.norm(A, axis=0)
    if not np.all(norms > 0):
        return None
    Q, R = np.linalg.qr(A / norms)
    diag = np.abs(np.diag(R))
    if not diag.min() > 0:
        return None
    cond = float(diag.max() / diag.min())
    if cond > CONDITION_WARN:
        return None
    values = np.asarray(profile.values, dtype=complex)
    b = np.column_stack([values.real, values.imag])
    x = np.linalg.solve(R, Q.T @ b) / norms[:, None]
    res_r, res_i = np.linalg.norm(b - A @ x, axis=0)
    gamma = {p: complex(x[j, 0], x[j, 1]) for j, p in enumerate(pairs)}
    return UnmixReport(profile.frequency, gamma, math.hypot(res_r, res_i), cond, "float64")


def radial_unmix(profile: RadialProfile, M: int, d: int, method: str = "lstsq") -> UnmixReport:
    """Recover the symmetrized pair coefficients feeding one radial profile.

    method "lstsq": least squares over the radial grid through an orthogonal
    factorization at WORK_DPS digits; method "taylor": triangular Taylor
    matching about r = 0, at WORK_DPS digits; method "float64": the same least
    squares as "lstsq" in double precision, from the double Bessel values. A
    "float64" solve whose design has a vanishing column, a singular R or a
    condition estimate above CONDITION_WARN is not trusted: the profile gets
    the "lstsq" report instead, and the report's method says so.
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
        report = _float64_unmix(profile, pairs, d) or _lstsq_unmix(profile, pairs, d)
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


def _legendre_triple(m, n, q):
    """(2q+1)/2 * int_{-1}^{1} P_m P_n P_q dt (the linearization coefficient)."""
    t, w = np.polynomial.legendre.leggauss((m + n + q) // 2 + 2)
    return (2 * q + 1) / 2.0 * float(
        np.sum(w * _legendre_values(m, t) * _legendre_values(n, t) * _legendre_values(q, t))
    )


def _extract_3d_joint(profiles, M, grid):
    """Joint least squares over all Gegenbauer components for the products
    Re(a_m conj(a_n)) of a zonal field.

    The per-component radial families contain exactly dependent Bessel-product
    quadruples (see radial_unmix), so single components cannot be unmixed in
    isolation; the coupled system across components is well conditioned.
    """
    pairs = [(m, n) for m in range(M + 1) for n in range(m, M + 1)]
    radii = profiles[0].radii
    used = [p for p in profiles if p.frequency <= 2 * M]
    rest = [p for p in profiles if p.frequency > 2 * M]
    with mp.workdps(WORK_DPS):
        jcache, pref = _bessel_rows(range(M + 1), radii, 3)
        cols = [[] for _ in pairs]
        rhs = []
        for prof in used:
            q = prof.frequency
            vals = _mp_parts(prof.values)[0]
            rhs.extend(vals)
            for j, (m, n) in enumerate(pairs):
                beta = _legendre_triple(m, n, q)
                mult = (1.0 if m == n else 2.0) * beta
                if abs(mult) < 1e-13:
                    cols[j].extend([mpf(0)] * len(radii))
                else:
                    mm = mpf(mult)
                    cols[j].extend(
                        mm * pref[i] * jcache[m][i] * jcache[n][i]
                        for i in range(len(radii))
                    )
        sol, cond, resid, defic = _mp_qr_solve(cols, rhs)
        if defic:
            raise ExtractionRankError([pairs[j] for j in defic])
        x = {p: float(sol[j]) for j, p in enumerate(pairs)}
    reports = [
        UnmixReport(-1, dict(x), float(resid), cond, "joint-lstsq",
                    warnings=([f"condition estimate {cond:.2e} above threshold"]
                              if cond > CONDITION_WARN else []))
    ]
    for prof in rest:
        norm = max((abs(complex(v)) for v in prof.values), default=0.0)
        reports.append(UnmixReport(prof.frequency, {}, norm, 1.0, "joint-lstsq",
                                   warnings=[] if norm < 1e-12 else
                                   [f"component beyond 2*max_degree has norm {norm:.2e}"]))
    gamma = np.zeros((M + 1, M + 1))
    gamma[np.triu_indices(M + 1)] = [x[p] for p in pairs]
    legendre = np.array([_legendre_values(m, grid.polar_t) for m in range(M + 1)])
    profile = gamma[:, :, None] * legendre[:, None, :] * legendre[None, :, :]
    return MagnitudeData(3, grid, np.repeat(profile, grid.azimuth_count, axis=2)), reports


def estimate_max_degree(samples: MagnitudeGrid, d: int, cap: int = 16) -> int:
    """Estimate the truncation degree from the active angular bandwidth,
    refining upward while the unmixing residual keeps improving. Only the
    residuals are read, so the candidate unmixings use the "float64" method."""
    profiles = angular_decompose(samples, d)
    scale = float(np.max(np.abs(np.asarray(samples.values, dtype=float)))) + 1.0
    act = [p.frequency for p in profiles
           if np.max(np.abs(np.asarray(p.values, dtype=complex))) > 1e-10 * scale]
    guess = max((q + 1) // 2 for q in act) if act else 0
    if d == 3:
        # zonal diagonals always land in the top Gegenbauer component, so the
        # bandwidth estimate is already the truncation degree
        return guess
    prev = None
    for M in range(guess, cap + 1):
        try:
            _, total = _extract_with_residual(profiles, d, M, "float64")
        except ValueError:
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
    samples: MagnitudeGrid, d: int, M: int | None = None, method: str = "lstsq"
):
    """Recover the full magnitude data from gridded |u|^2 samples.

    Returns (MagnitudeData, list of UnmixReport). The reports carry residual
    norms and condition estimates; a truncation degree below the true content
    shows up as an elevated residual rather than failing silently.
    """
    if M is None:
        M = estimate_max_degree(samples, d)
    profiles = angular_decompose(samples, d)
    if d == 2:
        reports, _ = _extract_with_residual(profiles, d, M, method)
        data = _assemble_2d(reports, M, samples.grid)
        return data, reports
    return _extract_3d_joint(profiles, M, samples.grid)
