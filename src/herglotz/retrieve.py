"""Constructive phase retrieval from magnitude data.

Solvers: the complete 2-D reconstruction, and the d >= 3 special cases (real
fields, nonvanishing mean, sparse/zonal). All solvers return a canonical
representative of the solution class {c u, c conj(u)} and post-verify by
forward synthesis against the input data.
"""

import cmath
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import harmonics
from .field import (
    BOTH,
    HerglotzField,
    MagnitudeData,
    _best_unimodular,
    _check_tol,
    add_fields,
    conjugate_field,
    eval_field_grid,
    magnitude_coeffs,
    trivially_equivalent,
)
from .harmonics import BasisSpec, harmonic_dim, sphere_grid

ACTIVE_TOL = 1e-10  # below this a mode power is treated as exactly zero
ACCEPT_TOL = 1e-6  # forward residual accepted as consistent data
R_TOL = 1e-7  # relative discriminant threshold for type-R detection


class InconsistentDataError(RuntimeError):
    """No field reproduces the given magnitude data within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BranchNotApplicableError(RuntimeError):
    """The requested retrieval branch does not apply to this data."""


# --------------------------------------------------------------------------
# pair solving (single 2-D mode)


@dataclass
class PairSolution:
    """Solutions (a, b) of |a|^2 + |b|^2 = s, a conj(b) = p.

    The moduli are the square roots of the two roots of x^2 - s x + |p|^2 = 0;
    both assignments are kept (they coincide when the roots do), and each
    carries one free unimodular phase.
    """

    s: float
    p: complex
    moduli: tuple  # (hi, lo)
    assignments: tuple  # one or two (|a|, |b|) options
    phase_diff: float | None  # arg p, None when p = 0

    @property
    def degenerate(self) -> bool:
        return len(self.assignments) == 1

    def realize(self, which: int = 0, phase: float = 0.0):
        x, y = self.assignments[which]
        shift = self.phase_diff if self.phase_diff is not None else 0.0
        a = x * np.exp(1j * (phase + shift))
        b = y * np.exp(1j * phase)
        return complex(a), complex(b)


def solve_pair(s: float, p: complex, tol: float = 1e-9) -> PairSolution:
    """Solve the single-mode system |a|^2 + |b|^2 = s, a conj(b) = p; an inf
    or nan in s or p raises InconsistentDataError."""
    s = float(s)
    p = complex(p)
    if not (math.isfinite(s) and cmath.isfinite(p)):
        raise InconsistentDataError(f"non-finite pair data: s = {s}, p = {p}")
    scale = 1.0 + abs(s)
    if s < -tol * scale:
        raise InconsistentDataError(f"negative mode power s = {s}")
    s = max(s, 0.0)
    if s < 2 * abs(p) - tol * scale:
        raise InconsistentDataError(
            f"inconsistent pair data: s = {s} < 2|p| = {2 * abs(p)}"
        )
    disc = max(s * s - 4 * (abs(p) ** 2), 0.0)
    root = math.sqrt(disc)
    t_hi = (s + root) / 2.0
    # the smaller root through the product form avoids the cancellation of
    # (s - root)/2 when |p| << s
    t_lo = (abs(p) ** 2 / t_hi) if t_hi > 0 else 0.0
    hi = math.sqrt(t_hi)
    lo = math.sqrt(t_lo)
    assignments = ((hi, lo),) if hi - lo <= tol * scale else ((hi, lo), (lo, hi))
    phase = None if p == 0 else float(np.angle(p))
    return PairSolution(s, p, (hi, lo), assignments, phase)


# --------------------------------------------------------------------------
# mode classification (d = 2, relative to a reference field)


@dataclass
class ModeType:
    """Per-mode relation flags of a candidate against a reference 2-D field."""

    degree: int
    type_i: bool
    type_c: bool
    type_r: bool
    kappa: complex | None = None
    theta: float | None = None


def _mode_pair(u: HerglotzField, m: int):
    vec = u.coeffs[m]
    return complex(vec[0]), complex(vec[1])


def classify_modes(u: HerglotzField, v: HerglotzField, tol: float = 1e-9) -> dict:
    """Classify each active mode of the reference u as type I / C / R against
    the candidate v (both d = 2, zero-mean branch)."""
    if u.dim != 2 or v.dim != 2:
        raise ValueError("mode classification applies to d = 2 fields")
    if abs(u.coeffs[0][0]) > tol or abs(v.coeffs[0][0]) > tol:
        raise ValueError("mode classification applies to the zero-mean branch")
    M = max(u.max_degree, v.max_degree)
    u, v = u.padded(M), v.padded(M)
    scale = max(u.max_coeff(), v.max_coeff(), 1.0)
    out = {}
    for m in range(1, M + 1):
        up, um = _mode_pair(u, m)
        vp, vm = _mode_pair(v, m)
        if max(abs(up), abs(um)) <= tol * scale:
            continue
        ref_i = np.array([up, um])
        ref_c = np.array([np.conj(um), np.conj(up)])
        cand = np.array([vp, vm])
        kap_i, res_i = _best_unimodular(cand, ref_i)
        kap_c, res_c = _best_unimodular(cand, ref_c)
        type_i = res_i <= tol * scale
        type_c = res_c <= tol * scale
        is_r_shape = abs(abs(up) - abs(um)) <= tol * scale and abs(up) > tol * scale
        type_r = is_r_shape and type_i and type_c
        kappa = complex(kap_i) if type_i else (complex(kap_c) if type_c else None)
        theta = None
        if type_r:
            theta = float(-np.angle(um / up) / 2.0)
        out[m] = ModeType(m, type_i, type_c, type_r, kappa, theta)
    return out


# --------------------------------------------------------------------------
# canonical gauge


def _phase_normalize(u: HerglotzField) -> HerglotzField:
    flat = u.flat()
    mx = np.abs(flat).max(initial=0.0)
    if mx == 0:
        return u.copy()
    idx = int(np.argmax(np.abs(flat) > 1e-13 * mx))
    a = flat[idx]
    if a.imag == 0.0 and a.real > 0.0:
        return u.copy()
    out = u.scaled(np.conj(a) / abs(a))
    # pin the gauge entry to its modulus so normalization is exactly idempotent
    k = idx
    for m, vec in enumerate(out.coeffs):
        if k < len(vec):
            vec[k] = abs(a)
            break
        k -= len(vec)
    return out


def canonicalize(u: HerglotzField) -> HerglotzField:
    """Remove the unimodular and conjugation ambiguity.

    The lowest nonzero coefficient (degree-major, index-minor) is rotated to
    the positive real axis; between the result and its conjugate transform the
    lexicographically smaller coefficient sequence (by (Re, Im) at the first
    differing entry) wins. Idempotent.
    """
    if u.is_zero():
        return u.copy()
    cand = _phase_normalize(u)
    alt = _phase_normalize(conjugate_field(u))
    for x, y in zip(cand.flat(), alt.flat()):
        if x.real != y.real:
            return cand if x.real < y.real else alt
        if x.imag != y.imag:
            return cand if x.imag < y.imag else alt
    return cand


# --------------------------------------------------------------------------
# retrieval results


@dataclass
class RetrievalResult:
    """Canonical field, its conjugate-class twin, and solver diagnostics."""

    field: HerglotzField
    conjugate: HerglotzField
    classes_coincide: bool
    branch: str
    residual: float
    modes: list = dc_field(default_factory=list)


def _finish(candidate: HerglotzField, data: MagnitudeData, branch: str, modes,
            accept_tol: float) -> RetrievalResult:
    """Canonicalize, forward-verify against the data and package the result."""
    synth = magnitude_coeffs(candidate, data.grid)
    scale = 1.0 + data.max_abs()
    residual = data.deviation(synth)
    if not residual <= accept_tol * scale:  # NaN data or a NaN residual fails too
        raise InconsistentDataError(
            f"forward synthesis residual {residual:.3e} exceeds tolerance", residual
        )
    rep = canonicalize(candidate)
    other = _phase_normalize(conjugate_field(rep))
    te = trivially_equivalent(rep, other)
    coincide = te.verdict == BOTH
    return RetrievalResult(rep, other, coincide, branch, float(residual), list(modes))


# --------------------------------------------------------------------------
# d = 2 retrieval


def retrieve_2d(data: MagnitudeData, accept_tol: float = ACCEPT_TOL) -> RetrievalResult:
    """Complete 2-D reconstruction from magnitude data.

    Nonzero-mean data goes through the real/imaginary split; zero-mean data is
    solved per mode by solve_pair and phases are propagated from a gauge mode,
    with the conjugate choice resolved against the cross terms. The output is
    post-verified by forward synthesis.
    """
    _check_tol(accept_tol, "accept_tol")
    if data.dim != 2:
        raise ValueError("retrieve_2d expects d = 2 magnitude data")
    M = data.max_degree
    scale = 1.0 + data.max_abs()
    active_tol = max(ACTIVE_TOL, 1e-12 * scale)

    s = {m: data.fourier_coeff(m, m, 0).real for m in range(M + 1)}
    p = {m: data.fourier_coeff(m, m, 2 * m) for m in range(1, M + 1)}

    if all(v <= active_tol for v in s.values()):
        zero = HerglotzField.zero(2, M, harmonics.fourier2d_basis())
        return _finish(zero, data, "zero", [], accept_tol)

    if s[0] > active_tol:
        return _retrieve_mean(data, harmonics.fourier2d_basis(), s[0], accept_tol)
    active = [m for m in range(1, M + 1) if s[m] > active_tol]
    return _retrieve_2d_zero_mean(data, s, p, active, accept_tol)


def _retrieve_2d_zero_mean(data, s, p, active, accept_tol) -> RetrievalResult:
    """Zero-mean branch over the active modes m >= 1; retrieve_2d passes at least one."""
    M = data.max_degree
    basis = harmonics.fourier2d_basis()
    pairs = {m: solve_pair(s[m], p[m], tol=1e-7) for m in active}
    disc = {m: s[m] ** 2 - 4 * abs(p[m]) ** 2 for m in active}
    modes = [
        {
            "m": m,
            "s": s[m],
            "abs_p": abs(p[m]),
            "type_r": disc[m] <= R_TOL * (s[m] ** 2),
            "moduli": pairs[m].moduli,
        }
        for m in active
    ]
    hub_candidates = [e["m"] for e in modes if not e["type_r"]]

    coeffs = [np.zeros(1, dtype=complex)] + [np.zeros(2, dtype=complex) for _ in range(M)]

    if hub_candidates:
        # the hub solve divides by |v_-|^2 - |v_+|^2, which vanishes as a mode
        # nears type R: take the mode farthest from it
        hub = max(hub_candidates, key=lambda m: disc[m] / s[m] ** 2)
        sol = pairs[hub]
        hi, lo = sol.moduli
        vh_p = complex(hi)
        vh_m = np.conj(p[hub]) / hi if hi > 0 else 0.0
        coeffs[hub] = np.array([vh_p, vh_m])
        det = abs(vh_m) ** 2 - abs(vh_p) ** 2
        for n in active:
            if n == hub:
                continue
            r_plus = data.fourier_coeff(hub, n, hub + n)
            r_minus = data.fourier_coeff(hub, n, abs(n - hub))
            b2 = r_minus if n > hub else np.conj(r_minus)
            # [conj(vh_m) vh_p; conj(vh_p) vh_m] [z1 z2]^T = [2 r_plus, 2 b2]^T
            z1 = (vh_m * 2 * r_plus - vh_p * 2 * b2) / det
            z2 = (np.conj(vh_m) * 2 * b2 - np.conj(vh_p) * 2 * r_plus) / det
            coeffs[n] = np.array([z1, np.conj(z2)])
        branch = "zero-mean"
    else:
        # all active modes are of type R: cosine modes with data-determined
        # offsets; relative mode phases enter only through their cosines, and
        # the residual sign ambiguity is the conjugate class.
        rho = {m: math.sqrt(s[m] / 2.0) for m in active}
        theta = {m: float(np.angle(p[m])) / 2.0 for m in active}
        chi = {}
        for i, n in enumerate(active):
            if i == 0:
                chi[n] = 0.0
                continue
            best = None
            for cand in _cosine_phase_candidates(data, n, active[:i], rho, theta, chi):
                if best is None or cand[1] < best[1]:
                    best = cand
            chi[n] = best[0]
        for n in active:
            coeffs[n] = np.array(
                [
                    rho[n] * np.exp(1j * (chi[n] + theta[n])),
                    rho[n] * np.exp(1j * (chi[n] - theta[n])),
                ]
            )
        branch = "all-R"

    candidate = HerglotzField(2, M, basis, coeffs)
    return _finish(candidate, data, branch, modes, accept_tol)


def _cosine_phase_candidates(data, n, fixed, rho, theta, chi):
    """Sign candidates +-delta for the phase of an all-R mode, scored against
    the cross data with every already-fixed mode."""
    k0 = fixed[0]
    r = data.fourier_coeff(k0, n, k0 + n)
    c = np.real(r * np.exp(-1j * (theta[k0] + theta[n]))) / (rho[k0] * rho[n])
    delta = math.acos(min(1.0, max(-1.0, c)))
    for sign in (1.0, -1.0):
        cand = chi[k0] + sign * delta
        err = 0.0
        for k in fixed:
            rk = data.fourier_coeff(k, n, k + n)
            ck = np.real(rk * np.exp(-1j * (theta[k] + theta[n]))) / (rho[k] * rho[n])
            err += abs(math.cos(cand - chi[k]) - min(1.0, max(-1.0, ck)))
        yield cand, err


# --------------------------------------------------------------------------
# real fields from data (shared by the mean branches and the CLI real branch)


def _weighted_lstsq(A: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Least-squares x with A x = b in the quadrature-weighted norm of the grid."""
    sw = np.sqrt(weights)
    x, *_ = np.linalg.lstsq(A * sw[:, None], b * sw, rcond=None)
    return x


def _rank1_degree(diag: np.ndarray, Y: np.ndarray, weights: np.ndarray, scale: float):
    """Real vector b with (Y b)^2 matching the diagonal samples, up to sign."""
    nf = Y.shape[1]
    cols = []
    index = []
    for j in range(nf):
        for k in range(j, nf):
            mult = 1.0 if j == k else 2.0
            cols.append(mult * Y[:, j] * Y[:, k])
            index.append((j, k))
    sol = _weighted_lstsq(np.stack(cols, axis=1), diag, weights)
    S = np.zeros((nf, nf))
    for (j, k), v in zip(index, sol):
        S[j, k] = v
        S[k, j] = v
    evals, evecs = np.linalg.eigh(S)
    lam = evals[-1]
    if lam <= 0:
        raise InconsistentDataError("degree data is not a nonnegative square")
    b = math.sqrt(lam) * evecs[:, -1]
    fit = (Y @ b) ** 2
    dev = float(np.abs(fit - diag).max())
    if dev > 1e-5 * scale:
        raise InconsistentDataError(
            f"degree data is not the square of a single harmonic (dev {dev:.2e})"
        )
    if b[int(np.argmax(np.abs(b)))] < 0:
        b = -b
    return b


def solve_real_from_data(data: MagnitudeData, basis: BasisSpec) -> HerglotzField:
    """Reconstruct a real-valued field from its magnitude data, up to the
    global sign (one representative is returned).

    The lowest active degree is recovered from its squared diagonal by a
    rank-one solve; every other active degree follows linearly from the cross
    term with that degree.
    """
    M = data.max_degree
    grid = data.grid
    scale = 1.0 + data.max_abs()
    act_tol = max(ACTIVE_TOL, 1e-9 * scale)
    diag = {m: data.pair_samples(m, m) for m in range(M + 1)}
    active = [m for m in range(M + 1) if np.abs(diag[m]).max(initial=0.0) > act_tol]
    field_out = HerglotzField.zero(data.dim, M, basis)
    if not active:
        return field_out
    m0 = active[0]
    Y0 = basis.real_values(m0, grid)
    b0 = _rank1_degree(diag[m0], Y0, grid.weights, scale)
    vectors = {m0: b0}
    w0 = Y0 @ b0
    for n in active:
        if n == m0:
            continue
        Yn = basis.real_values(n, grid)
        bn = _weighted_lstsq(w0[:, None] * Yn, data.pair_samples(m0, n), grid.weights)
        fit = (Yn @ bn) ** 2
        if np.abs(fit - diag[n]).max() > 1e-5 * scale:
            raise InconsistentDataError(
                f"degree {n} cross data inconsistent with its diagonal"
            )
        vectors[n] = bn
    coeffs = [
        basis.real_coeffs(m, vectors[m])
        if m in vectors
        else np.zeros(harmonic_dim(data.dim, m), dtype=complex)
        for m in range(M + 1)
    ]
    return HerglotzField(data.dim, M, basis, coeffs)


def retrieve_real_data(data: MagnitudeData, basis: BasisSpec,
                       accept_tol: float = ACCEPT_TOL) -> RetrievalResult:
    """Retrieval branch for data known to come from a real-valued field."""
    _check_tol(accept_tol, "accept_tol")
    candidate = solve_real_from_data(data, basis)
    return _finish(candidate, data, "real", [
        {"m": m, "power": float(np.sum(np.abs(v) ** 2))}
        for m, v in enumerate(candidate.coeffs)
    ], accept_tol)


# --------------------------------------------------------------------------
# d >= 3 special cases


def retrieve_3d_real(u: HerglotzField, v: HerglotzField, radii=None, tol: float = 1e-8) -> int:
    """Decide u = v or u = -v for two real fields of equal magnitude.

    Returns +1 or -1; mixed signs (or unequal magnitudes) beyond tolerance
    raise InconsistentDataError. The verdict is by sign agreement at all grid
    nodes where |u| clears the tolerance band; a nan, infinite or negative tol
    raises ValueError.
    """
    _check_tol(tol, "tol")
    if radii is None:
        radii = 0.1 + 0.9 * np.arange(8) / 7.0
    M = max(u.max_degree, v.max_degree)
    grid = sphere_grid(u.dim, max(2 * M + 4, 8))
    uu = eval_field_grid(u, radii, grid.nodes)
    vv = eval_field_grid(v, radii, grid.nodes)
    if max(np.abs(uu.imag).max(initial=0.0), np.abs(vv.imag).max(initial=0.0)) > 1e-9 * (
        1 + np.abs(uu).max(initial=0.0)
    ):
        raise ValueError("retrieve_3d_real expects real-valued fields")
    ur, vr = uu.real, vv.real
    scale = 1.0 + np.abs(ur).max(initial=0.0)
    if np.abs(np.abs(ur) - np.abs(vr)).max(initial=0.0) > 1e2 * tol * scale:
        raise InconsistentDataError("not a real equal-magnitude pair")
    mask = np.abs(ur) > tol * scale
    if not np.any(mask):
        return 1
    signs = np.sign(ur[mask] * vr[mask])
    if np.all(signs > 0):
        return 1
    if np.all(signs < 0):
        return -1
    raise InconsistentDataError("mixed sign pattern: not a real equal-magnitude pair")


def retrieve_3d_mean(data: MagnitudeData, basis: BasisSpec,
                     accept_tol: float = ACCEPT_TOL) -> RetrievalResult:
    """Retrieval for data with nonvanishing mean: d >= 3 in a real basis, or
    d = 2 in the fourier2d basis (where it is the mean branch of retrieve_2d)."""
    _check_tol(accept_tol, "accept_tol")
    if basis.dim != data.dim:
        raise ValueError(f"basis is for d = {basis.dim}, data for d = {data.dim}")
    scale = 1.0 + data.max_abs()
    # d = 2 takes the mean from its q = 0 coefficient, as retrieve_2d does, so
    # that both hand the core the same bits
    if data.dim == 2:
        s0 = data.fourier_coeff(0, 0, 0).real
    else:
        s0 = float(np.mean(data.pair_samples(0, 0)))
    mean_tol = max(ACTIVE_TOL, 1e-9 * scale)
    if s0 <= mean_tol:
        raise BranchNotApplicableError(
            f"vanishing mean: mean power {s0:.3e} is at most {mean_tol:.3e}"
        )
    return _retrieve_mean(data, basis, s0, accept_tol)


def _retrieve_mean(data: MagnitudeData, basis: BasisSpec, s0: float,
                   accept_tol: float) -> RetrievalResult:
    """Mean branch for a mean power s0 > 0, in any basis.

    The mean is gauged real positive, the real parts of all coefficients are
    fitted to the Re c_{0,n} cross terms, and the imaginary part (a real field
    whose squared magnitude is the remaining data) is recovered up to the
    global sign of the solution class."""
    M = data.max_degree
    grid = data.grid
    y0 = float(basis.real_values(0, grid)[0, 0])
    a0 = math.sqrt(s0) / y0
    vectors = [np.array([a0])]
    modes = [{"m": 0, "mean": a0}]
    for n in range(1, M + 1):
        Yn = basis.real_values(n, grid)
        re_n = _weighted_lstsq(Yn, data.pair_samples(0, n) / (a0 * y0), grid.weights)
        vectors.append(re_n)
        modes.append({"m": n, "re_power": float(np.sum(re_n**2))})
    w_re = HerglotzField(
        data.dim, M, basis, [basis.real_coeffs(m, v) for m, v in enumerate(vectors)]
    )
    resid_data = data.subtract(magnitude_coeffs(w_re, grid))
    w_im = solve_real_from_data(resid_data, basis)
    candidate = add_fields(w_re, w_im.scaled(1j))
    return _finish(candidate, data, "mean", modes, accept_tol)


def retrieve_3d_sparse(data: MagnitudeData, basis: BasisSpec,
                       accept_tol: float = ACCEPT_TOL) -> RetrievalResult:
    """d >= 3 retrieval for fields sparse in a real basis with independent squares.

    Per degree, the support index is identified by matching the diagonal
    Re c_{m,m} against candidate squared basis functions; moduli come from the
    diagonal, real parts from the cross terms with the first active degree,
    and imaginary parts up to the global sign from the remaining cross terms."""
    _check_tol(accept_tol, "accept_tol")
    if data.dim < 3:
        raise BranchNotApplicableError("the sparse branch applies to d >= 3 data")
    if basis.dim != data.dim:
        raise ValueError(f"basis is for d = {basis.dim}, data for d = {data.dim}")
    M = data.max_degree
    grid = data.grid
    scale = 1.0 + data.max_abs()
    act_tol = max(ACTIVE_TOL, 1e-9 * scale)

    support = {}
    modulus = {}
    modes = []
    yvals = {}
    for m in range(M + 1):
        diag = data.pair_samples(m, m)
        yvals[m] = basis.real_values(m, grid)
        if np.abs(diag).max(initial=0.0) <= act_tol:
            modes.append({"m": m, "active": False})
            continue
        best = None
        for j in range(yvals[m].shape[1]):
            sq = yvals[m][:, j] ** 2
            lam = float(np.dot(diag * grid.weights, sq) / np.dot(sq * grid.weights, sq))
            dev = float(np.abs(diag - lam * sq).max())
            if best is None or dev < best[1]:
                best = (j, dev, lam)
        j, dev, lam = best
        if dev > 1e-5 * scale or lam <= 0:
            raise BranchNotApplicableError(
                f"degree {m} diagonal does not match any squared basis function "
                f"(best deviation {dev:.2e}): not sparse in this basis"
            )
        support[m] = j
        modulus[m] = math.sqrt(lam)
        modes.append({"m": m, "active": True, "j": j + 1, "modulus": modulus[m]})

    active = sorted(support)
    coeffs = [np.zeros(harmonic_dim(data.dim, m), dtype=complex) for m in range(M + 1)]
    if active:
        m0 = active[0]
        a = {m0: complex(modulus[m0])}

        def cross_scalar(m, n):
            psi = yvals[m][:, support[m]] * yvals[n][:, support[n]]
            vals = data.pair_samples(m, n)
            return float(np.dot(vals * grid.weights, psi) / np.dot(psi * grid.weights, psi))

        re = {m0: modulus[m0]}
        im_abs = {m0: 0.0}
        for n in active[1:]:
            re_n = cross_scalar(m0, n) / modulus[m0]
            re_n = max(min(re_n, modulus[n]), -modulus[n])
            re[n] = re_n
            im_abs[n] = math.sqrt(max(modulus[n] ** 2 - re_n**2, 0.0))
        im_tol = 1e-6 * (1 + max(modulus.values()))
        with_im = [n for n in active if im_abs.get(n, 0.0) > im_tol]
        im = {n: 0.0 for n in active}
        if with_im:
            m1 = with_im[0]
            im[m1] = im_abs[m1]
            for n in with_im[1:]:
                prod = cross_scalar(m1, n) - re[m1] * re[n]
                im[n] = math.copysign(im_abs[n], prod * im[m1])
        for n in active:
            coeffs[n][support[n]] = re[n] + 1j * im[n]
    candidate = HerglotzField(data.dim, M, basis, coeffs)
    return _finish(candidate, data, "sparse", modes, accept_tol)
