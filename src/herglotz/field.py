"""Herglotz wave fields on the unit ball.

A field is a K-finite solution of Delta u + u = 0, stored through its
spherical-harmonic coefficient table:

    u(r theta) = sqrt(2 pi) r^{-(d-2)/2} sum_m sum_j a_{m,j} J_{nu(m)}(r) Y_m^j(theta)

with nu(m) = m + (d-2)/2 and the wavelength normalized to 1. The magnitude
data of a field is the family of real functions Re c_{m,n} determined by
|u|^2, which this module assembles, compares and verifies.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from mpmath import mp, mpc, mpf

from . import harmonics
from .harmonics import (BasisSpec, SphereGrid, _array_key, harmonic_dim, sphere_grid,
                        surface_measure)
from .specfun import (_ROW_TABLE_SIZE, _raw, _read_only, _round, _signed, bessel_j,
                      bessel_j_mp, bessel_row)

WORKING_RADIUS = 1.0
COEFF_TOL = 1e-9  # exact-coefficient comparisons
GRID_TOL = 1e-6  # sampled-grid comparisons


def nu_order(m: int, d: int) -> float:
    return m + (d - 2) / 2.0


def check_degree(max_degree: int):
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")


def _refuse_non_finite(radii: np.ndarray):
    """ValueError naming the first radius that is inf or nan."""
    if (bad := radii[~np.isfinite(radii)]).size:
        raise ValueError(f"non-finite radius {bad[0]}")


def check_radii(radii) -> np.ndarray:
    """radii as a read-only float copy; ValueError unless a nonempty 1-D array,
    finite (naming the first value that is not), positive and strictly increasing."""
    radii = np.array(radii, dtype=float)
    if radii.ndim != 1 or not radii.size:
        raise ValueError(f"radii must be a nonempty 1-D array, got shape {radii.shape}")
    _refuse_non_finite(radii)
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly increasing")
    return _read_only(radii)


@dataclass(eq=False)
class HerglotzField:
    """Truncated coefficient table of a Herglotz field; immutable by convention."""

    dim: int
    max_degree: int
    basis: BasisSpec
    coeffs: list  # coeffs[m]: complex vector of length N(m)

    def __post_init__(self):
        if self.basis.dim != self.dim:
            raise ValueError("basis dimension does not match field dimension")
        check_degree(self.max_degree)
        if len(self.coeffs) != self.max_degree + 1:
            raise ValueError("need one coefficient vector per degree 0..max_degree")
        coeffs = []
        for m, vec in enumerate(self.coeffs):
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != (harmonic_dim(self.dim, m),):
                raise ValueError(
                    f"degree {m} expects {harmonic_dim(self.dim, m)} coefficients"
                )
            coeffs.append(vec)
        self.coeffs = coeffs

    @classmethod
    def zero(cls, dim, max_degree, basis):
        return cls(
            dim,
            max_degree,
            basis,
            [np.zeros(harmonic_dim(dim, m), dtype=complex) for m in range(max_degree + 1)],
        )

    def copy(self):
        return HerglotzField(self.dim, self.max_degree, self.basis, [c.copy() for c in self.coeffs])

    def scaled(self, c):
        return HerglotzField(
            self.dim, self.max_degree, self.basis, [c * v for v in self.coeffs]
        )

    def padded(self, max_degree):
        """The field with zero coefficients up to max_degree; at its own degree
        the field itself, whose coefficient arrays the caller must not change."""
        if max_degree < self.max_degree:
            raise ValueError("cannot shrink a field by padding")
        if max_degree == self.max_degree:
            return self
        coeffs = [v.copy() for v in self.coeffs]
        for m in range(self.max_degree + 1, max_degree + 1):
            coeffs.append(np.zeros(harmonic_dim(self.dim, m), dtype=complex))
        return HerglotzField(self.dim, max_degree, self.basis, coeffs)

    def flat(self):
        return np.concatenate(self.coeffs) if self.coeffs else np.zeros(0, dtype=complex)

    def max_coeff(self) -> float:
        return max((np.abs(v).max() for v in self.coeffs if len(v)), default=0.0)

    def is_zero(self, tol=0.0) -> bool:
        return self.max_coeff() <= tol


def add_fields(u: HerglotzField, v: HerglotzField) -> HerglotzField:
    u.basis.require_same(v.basis, min(u.max_degree, v.max_degree))
    M = max(u.max_degree, v.max_degree)
    a, b = u.padded(M), v.padded(M)
    return HerglotzField(u.dim, M, u.basis, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def conjugate_field(u: HerglotzField) -> HerglotzField:
    """The coefficient table of conj(u), degree by degree (BasisSpec.conjugate)."""
    out = [u.basis.conjugate(m, vec) for m, vec in enumerate(u.coeffs)]
    return HerglotzField(u.dim, u.max_degree, u.basis, out)


# --------------------------------------------------------------------------
# evaluation


def _radial_limit0(d: int) -> float:
    # limit of r^{-(d-2)/2} J_{(d-2)/2}(r) as r -> 0
    return 0.5 ** ((d - 2) / 2.0) / math.gamma(d / 2.0)


def eval_field_grid(u: HerglotzField, radii, theta) -> np.ndarray:
    """Field values on the product of ``radii`` and points ``theta`` (n, d).

    Returns an array of shape (len(radii), len(theta)). Radii may include 0,
    where the m = 0 limit is used, and come in any order; an inf or nan radius
    raises ValueError.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    _refuse_non_finite(radii)
    if np.any(radii < 0):
        raise ValueError("radii must be nonnegative")
    if np.any(radii > WORKING_RADIUS + 1e-12):
        warnings.warn("evaluating beyond the working ball radius", stacklevel=2)
    d = u.dim
    out = np.zeros((len(radii), len(theta)), dtype=complex)
    pos = radii > 0
    all_pos = bool(pos.size and pos.all())  # the common case: no masks to apply
    rp = radii if all_pos else radii[pos]
    rp_scale = rp ** (-(d - 2) / 2.0)
    pref = math.sqrt(2 * math.pi)
    for m in range(u.max_degree + 1):
        vec = u.coeffs[m]
        if not np.any(vec):
            continue
        fm = u.basis.values(m, theta) @ vec  # (ntheta,)
        if all_pos:
            radial = rp_scale * bessel_row(nu_order(m, d), rp)
        else:
            radial = np.zeros(len(radii))
            if len(rp):
                radial[pos] = rp_scale * bessel_row(nu_order(m, d), rp)
            radial[~pos] = _radial_limit0(d) if m == 0 else 0.0
        out += pref * radial[:, None] * fm[None, :]
    return out


def eval_field(u: HerglotzField, r, theta):
    """Value of u at radius r and unit direction theta."""
    theta = harmonics._check_unit(theta, "theta", 1e-9)
    return complex(eval_field_grid(u, [float(r)], theta[None, :])[0, 0])


def magnitude_sq(u: HerglotzField, r, theta) -> float:
    """|u(r theta)|^2."""
    return abs(eval_field(u, r, theta)) ** 2


def magnitude_sq_from_modes(u: HerglotzField, r, theta) -> float:
    """|u|^2 through the c_{m,n} double sum; an independent route used to
    cross-check magnitude_sq."""
    r = float(r)
    theta = np.asarray(theta, dtype=float)
    d = u.dim
    fvals = [u.basis.values(m, theta[None, :])[0] @ u.coeffs[m] for m in range(u.max_degree + 1)]
    js = [bessel_j(nu_order(m, d), r) for m in range(u.max_degree + 1)]
    total = 0.0
    for m in range(u.max_degree + 1):
        for n in range(u.max_degree + 1):
            cmn = fvals[m] * np.conj(fvals[n])
            total += cmn.real * js[m] * js[n]
    if r == 0:
        return abs(eval_field(u, 0.0, theta)) ** 2
    return 2 * math.pi / r ** (d - 2) * total


# --------------------------------------------------------------------------
# magnitude data


def pair_frequencies(m: int, n: int) -> list:
    """The angular frequencies +-(m+n), +-(n-m) that Re c_{m,n} can carry (d = 2)."""
    return sorted({m + n, -(m + n), n - m, m - n})


@dataclass(eq=False)
class MagnitudeData:
    """The family Re c_{m,n}, 0 <= m, n <= M, held in one array symmetric in (m, n).

    d = 2: ``table[m, n, q + 2M]`` is the angular Fourier coefficient of
    Re c_{m,n} at frequency q. d >= 3: ``table[m, n, k]`` is Re c_{m,n} at grid
    node k. Construction reads the upper triangle m <= n, mirrors it into the
    lower one and freezes the array; for d = 2 it also synthesizes the grid
    samples, the only place where a Fourier table becomes samples. A table of
    another shape than (M + 1, M + 1, 4M + 1) for d = 2 or (M + 1, M + 1,
    len(grid)) for d >= 3 raises ValueError.
    """

    dim: int
    grid: SphereGrid
    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=complex if self.dim == 2 else float)
        M = len(table) - 1
        need = (M + 1, M + 1, 4 * M + 1 if self.dim == 2 else len(self.grid))
        if table.shape != need:
            raise ValueError(f"table has shape {table.shape}; degree {M} needs {need}")
        lower = _mirror_index(M)
        table[lower] = table[lower[::-1]]
        self.table = _read_only(table)
        self._samples = self._synthesize() if self.dim == 2 else table

    def _synthesize(self) -> np.ndarray:
        """Grid samples of every Re c_{m,n}, summed in ascending frequency over
        the frequencies -(m+n) <= -|n-m| <= |n-m| <= m+n the pair carries (the
        slots of _synthesis_plan)."""
        vals = np.zeros(self.table.shape[:2] + (len(self.grid),), dtype=complex)
        for k, once, waves in _synthesis_plan(self.max_degree, _array_key(self.grid.angles)):
            coef = np.take_along_axis(self.table, k[..., None], axis=2)[..., 0]
            vals += np.where(once, coef, 0)[..., None] * waves
        return _read_only(vals.real)

    @property
    def max_degree(self) -> int:
        return len(self.table) - 1

    def pairs(self):
        M = self.max_degree
        return [(m, n) for m in range(M + 1) for n in range(m, M + 1)]

    def pair_samples(self, m, n) -> np.ndarray:
        return self._samples[m, n]

    def fourier_coeff(self, m, n, q) -> complex:
        """Angular Fourier coefficient of Re c_{m,n} at frequency q (d = 2)."""
        return complex(self.table[m, n, q + 2 * self.max_degree])

    def pair_fourier(self, m, n) -> dict:
        """{q: coefficient} of Re c_{m,n} at its frequencies; empty for d >= 3."""
        if self.dim != 2:
            return {}
        return {q: self.fourier_coeff(m, n, q) for q in pair_frequencies(m, n)}

    @property
    def fourier(self):
        """Read-only {(m, n): {q: coefficient}} for m <= n; None for d >= 3."""
        if self.dim != 2:
            return None
        return MappingProxyType({p: self.pair_fourier(*p) for p in self.pairs()})

    @property
    def samples(self):
        """Read-only {(m, n): grid samples of Re c_{m,n}} for m <= n."""
        return MappingProxyType({p: self.pair_samples(*p) for p in self.pairs()})

    def max_abs(self) -> float:
        """Largest modulus over the samples and, for d = 2, the Fourier table."""
        best = np.abs(self._samples).max(initial=0.0)
        if self.dim == 2:
            best = max(best, np.abs(self.table).max(initial=0.0))
        return float(best)

    def _joint_tables(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.max_degree != other.max_degree:
            raise ValueError(f"degrees differ: {self.max_degree} and {other.max_degree}")
        if self.dim != 2 and len(self.grid) != len(other.grid):
            raise ValueError("sample grids differ; cannot compare")
        return self.table, other.table

    def deviation(self, other) -> float:
        """Max absolute deviation over all pairs from other data of the same
        degree: of the Fourier tables for d = 2, of the samples for d >= 3."""
        a, b = self._joint_tables(other)
        return float(np.abs(a - b).max(initial=0.0))

    def subtract(self, other) -> "MagnitudeData":
        a, b = self._joint_tables(other)
        return MagnitudeData(self.dim, self.grid, a - b)


@lru_cache(maxsize=harmonics._TABLE_SIZE)
def _mirror_index(M: int) -> tuple:
    """np.tril_indices(M + 1, -1), the entries m > n of an (M + 1) x (M + 1)
    table, once per degree and shared (read-only)."""
    lower = np.tril_indices(M + 1, -1)
    _read_only(*lower)
    return lower


@lru_cache(maxsize=harmonics._TABLE_SIZE)
def _synthesis_plan(M: int, angles: bytes) -> tuple:
    """The four slots (k, once, waves) of MagnitudeData._synthesize at degree M
    on the angles given by their bytes, once per key and shared (read-only).
    Slot k[m, n] indexes the table's frequency axis at -(m+n), -|n-m|, |n-m|,
    m+n in turn; waves = e^{i q t} at that frequency on the angles; a
    frequency the pair repeats is added once, the other copy (once False) as
    an exact zero."""
    waves = np.exp(1j * np.arange(-2 * M, 2 * M + 1)[:, None] * np.frombuffer(angles))
    m, n = np.indices((M + 1, M + 1))
    total, diff = m + n, abs(n - m)
    every = np.ones_like(total, dtype=bool)
    slots = ((-total, every), (-diff, diff != total), (diff, diff != 0), (total, total != diff))
    plan = []
    for q, once in slots:
        k = q + 2 * M
        plan.append((k, once, waves[k]))
        _read_only(*plan[-1])
    return tuple(plan)


def default_data_grid(dim: int, max_degree: int) -> SphereGrid:
    if dim == 2:
        return sphere_grid(2, max(4 * max_degree + 5, 8))
    return sphere_grid(dim, max(2 * max_degree + 4, 8))


def magnitude_coeffs(u: HerglotzField, grid: SphereGrid | None = None) -> MagnitudeData:
    """Assemble the magnitude data Re c_{m,n} of a field.

    d = 2 data is the exact angular Fourier table. d >= 3 data is sampled on
    the grid, which should be exact for products of degree <= 2 * max_degree;
    the default grid is. Diagonal entries are checked for pointwise
    nonnegativity.
    """
    if grid is None:
        grid = default_data_grid(u.dim, u.max_degree)
    if grid.dim != u.dim:
        raise ValueError("grid dimension mismatch")
    M = u.max_degree
    if u.dim == 2:
        # f_m = a_m^+ e^{imt} + a_m^- e^{-imt} (one amplitude at m = 0), so
        # c_{m,n} = f_m conj(f_n) carries four products at q = +-m -+ n
        plus = np.array([v[0] for v in u.coeffs])
        minus = np.array([0j] + [v[1] for v in u.coeffs[1:]])
        m, n = np.ogrid[: M + 1, : M + 1]
        raw = np.zeros((M + 1, M + 1, 4 * M + 1), dtype=complex)
        for a, b, q in ((plus, plus, m - n), (plus, minus, m + n),
                        (minus, plus, -m - n), (minus, minus, n - m)):
            b = np.conj(b)
            # real arithmetic rounds as a scalar complex product does (no fused
            # multiply-add), so that u -> i u leaves the data bit-identical
            idx = (m, n, 2 * M + q)
            raw.real[idx] += a.real[:, None] * b.real - a.imag[:, None] * b.imag
            raw.imag[idx] += a.real[:, None] * b.imag + a.imag[:, None] * b.real
        data = MagnitudeData(2, grid, (raw + np.conj(raw[..., ::-1])) / 2.0)
    else:
        f = np.array([u.basis.values(k, grid.nodes) @ u.coeffs[k] for k in range(M + 1)])
        data = MagnitudeData(u.dim, grid, (f[:, None] * np.conj(f)[None]).real)
    diag = np.array([data.pair_samples(k, k) for k in range(M + 1)])
    worst = int(np.argmin(diag.min(axis=1, initial=0.0)))
    if diag[worst].min(initial=0.0) < -1e-12 * (1.0 + diag.max(initial=0.0)):
        raise RuntimeError(
            f"diagonal magnitude data Re c_{{{worst},{worst}}} lost positivity"
        )
    return data


def _check_tol(tol, name):
    """ValueError naming the parameter unless tol is finite and nonnegative: a
    nan or negative tolerance refuses consistent data, and inf accepts anything."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {tol}")


def comparison_tol(dim: int) -> float:
    """Relative tolerance of the field comparisons: exact Fourier data for
    d = 2, grid samples for d >= 3."""
    return COEFF_TOL if dim == 2 else GRID_TOL


def equal_magnitude(u: HerglotzField, v: HerglotzField, tol: float | None = None) -> bool:
    """Whether |u| = |v|, decided through the magnitude data (all Re c_{m,n}),
    cross-checked against a direct grid comparison of |u|^2 and |v|^2. tol
    defaults to comparison_tol; a nan, infinite or negative one raises
    ValueError."""
    if tol is None:
        tol = comparison_tol(u.dim)
    _check_tol(tol, "tol")
    u.basis.require_same(v.basis, min(u.max_degree, v.max_degree))
    M = max(u.max_degree, v.max_degree)
    grid = default_data_grid(u.dim, M)
    du = magnitude_coeffs(u.padded(M), grid)
    dv = magnitude_coeffs(v.padded(M), grid)
    scale = 1.0 + max(du.max_abs(), dv.max_abs())
    dev = du.deviation(dv)
    verdict = dev <= tol * scale

    radii = 0.05 + 0.95 * (np.arange(1, 17) / 16.0)
    mu = np.abs(eval_field_grid(u, radii, grid.nodes)) ** 2
    mv = np.abs(eval_field_grid(v, radii, grid.nodes)) ** 2
    direct_dev = float(np.abs(mu - mv).max())
    direct_scale = 1.0 + float(max(mu.max(initial=0.0), mv.max(initial=0.0)))
    if verdict and direct_dev > 1e-4 * direct_scale:
        raise RuntimeError(
            "magnitude-data verdict (equal) contradicts the direct grid comparison"
        )
    if not verdict and dev > 100 * tol * scale and direct_dev <= 1e-10 * direct_scale:
        raise RuntimeError(
            "magnitude-data verdict (unequal) contradicts the direct grid comparison"
        )
    return verdict


# --------------------------------------------------------------------------
# trivial equivalence


IDENTITY = "Identity"
CONJUGATE = "Conjugate"
BOTH = "Both"
INEQUIVALENT = "Inequivalent"


@dataclass
class TrivialEquivalence:
    """Verdict of the trivial-solution test: v = c u, v = c conj(u), both, or neither."""

    verdict: str
    c: complex | None
    residual: float

    def __post_init__(self):
        if self.c is not None and not abs(abs(self.c) - 1.0) <= 1e-12:  # nan is not unimodular
            raise ValueError("c must be unimodular")

    @property
    def equivalent(self) -> bool:
        return self.verdict != INEQUIVALENT


def _best_unimodular(target: np.ndarray, source: np.ndarray):
    """Unimodular c minimizing max |target - c source|, estimated at the
    largest-modulus source entry and verified globally."""
    k = int(np.argmax(np.abs(source)))
    if abs(source[k]) == 0:
        c = 1.0 + 0j
    else:
        c = target[k] / source[k]
        c = c / abs(c) if abs(c) > 0 else 1.0 + 0j
    residual = float(np.abs(target - c * source).max(initial=0.0))
    return c, residual


def trivially_equivalent(u: HerglotzField, v: HerglotzField, tol: float = COEFF_TOL) -> TrivialEquivalence:
    """Search for a unimodular c with v = c u or v = c conj(u) at the coefficient
    level; a nan, infinite or negative tol raises ValueError."""
    _check_tol(tol, "tol")
    u.basis.require_same(v.basis, min(u.max_degree, v.max_degree))
    M = max(u.max_degree, v.max_degree)
    au = u.padded(M).flat()
    av = v.padded(M).flat()
    ab = conjugate_field(u.padded(M)).flat()
    scale = max(np.abs(au).max(initial=0.0), np.abs(av).max(initial=0.0), 1.0)
    if np.abs(au).max(initial=0.0) <= tol * scale and np.abs(av).max(initial=0.0) <= tol * scale:
        return TrivialEquivalence(BOTH, 1.0 + 0j, float(np.abs(av - au).max(initial=0.0)))
    ci, ri = _best_unimodular(av, au)
    cc, rc = _best_unimodular(av, ab)
    id_ok = ri <= tol * scale
    cj_ok = rc <= tol * scale
    if id_ok and cj_ok:
        return TrivialEquivalence(BOTH, ci, min(ri, rc))
    if id_ok:
        return TrivialEquivalence(IDENTITY, ci, ri)
    if cj_ok:
        return TrivialEquivalence(CONJUGATE, cc, rc)
    return TrivialEquivalence(INEQUIVALENT, None, min(ri, rc))


# --------------------------------------------------------------------------
# per-degree power and the mean coefficient


def degree_power(u: HerglotzField, m: int) -> float:
    """sum_k |a_{m,k}|^2 in orthonormal coordinates, the L^2(S^{d-1}) norm
    squared of u's degree-m angular part: the plain sum of squares for
    fourier2d, a* G a through the degree-m Gram matrix for the real bases."""
    if m > u.max_degree:
        return 0.0
    return u.basis.power(m, u.coeffs[m])


def mean_coefficient(u: HerglotzField, eta: float = 1.0) -> complex:
    """Recover a_{0,1} from quadrature of u over the sphere of radius eta:

        a_{0,1} = eta^{(d-2)/2} / (sqrt(2 pi) sigma(S^{d-1}) J_{(d-2)/2}(eta) Y_0)
                  * int u(eta theta) dsigma(theta).
    """
    d = u.dim
    j0 = bessel_j(nu_order(0, d), eta)
    if abs(j0) < 1e-8:
        raise ValueError(
            f"eta={eta} is at (or too close to) a Bessel zero: J_{(d-2)/2}({eta}) = {j0:.3e}"
        )
    grid = sphere_grid(d, max(u.max_degree + 2, 8))
    vals = eval_field_grid(u, [eta], grid.nodes)[0]
    integral = complex(vals @ grid.weights)
    y0 = u.basis.values(0, grid.nodes[:1])[0, 0]
    denom = math.sqrt(2 * math.pi) * surface_measure(d) * j0 * y0
    return integral * eta ** ((d - 2) / 2.0) / denom


# --------------------------------------------------------------------------
# random fields and magnitude sampling


def random_field(
    dim: int,
    max_degree: int,
    basis: BasisSpec,
    seed: int,
    real: bool = False,
    sparse: bool = False,
    zonal: bool = False,
    zero_mean: bool = False,
    all_r: bool = False,
) -> HerglotzField:
    """Seeded random K-finite field with optional structural constraints."""
    check_degree(max_degree)
    if all_r and dim != 2:
        raise ValueError("the all-R construction only exists for d = 2")
    if zonal and basis.kind != harmonics.ZONAL:
        raise ValueError("zonal fields require a zonal basis")
    rng = np.random.default_rng(seed)
    coeffs = []
    for m in range(max_degree + 1):
        n = harmonic_dim(dim, m)
        vec = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        coeffs.append(vec)
    if all_r:
        for m in range(1, max_degree + 1):
            rho = abs(rng.standard_normal()) + 0.2
            chi = rng.uniform(0, 2 * math.pi)
            th = rng.uniform(0, 2 * math.pi)
            coeffs[m] = np.array(
                [rho * np.exp(1j * (chi + th)), rho * np.exp(1j * (chi - th))]
            )
        coeffs[0] = np.zeros(1, dtype=complex)
    if real:
        coeffs = [basis.real_part(m, v) for m, v in enumerate(coeffs)]
    if sparse or zonal:
        for m in range(max_degree + 1):
            keep = 0 if zonal else int(rng.integers(len(coeffs[m])))
            mask = np.zeros_like(coeffs[m])
            mask[keep] = coeffs[m][keep]
            coeffs[m] = mask
    if zero_mean:
        coeffs[0] = np.zeros_like(coeffs[0])
    return HerglotzField(dim, max_degree, basis, coeffs)


@dataclass(eq=False)
class MagnitudeGrid:
    """|u|^2 sampled on radii x sphere nodes; values has shape (len(radii), len(grid))."""

    dim: int
    radii: np.ndarray
    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        self.radii = check_radii(self.radii)
        # a read-only copy: extract keeps the profiles of each grid object
        self.values = _read_only(np.array(self.values))
        if self.values.shape != (len(self.radii), len(self.grid)):
            raise ValueError(
                f"values have shape {self.values.shape}; {len(self.radii)} radii and "
                f"{len(self.grid)} sphere nodes need {(len(self.radii), len(self.grid))}"
            )


@lru_cache(maxsize=_ROW_TABLE_SIZE)
def _mp_bessel_row(m, radii, prec):
    """The raw libmp values of bessel_j_mp(m, r) for the radii (bytes) at
    precision prec, as a tuple; shared across the process."""
    with mp.workprec(prec):
        return tuple(bessel_j_mp(m, mpf(r))._mpf_ for r in np.frombuffer(radii))


def sample_magnitude(
    u: HerglotzField, radii, angular: int, dps: int | None = None
) -> MagnitudeGrid:
    """Sample |u|^2 on the product grid of ``radii`` and an angular grid.

    With ``dps`` set (d = 2 only, a positive number of digits) the samples
    are computed in arbitrary precision and returned as an object array of mpf
    values, which the extraction module consumes without rounding to double.
    Each is tot = f_0 J_0 + f_1 J_1 + ... and 2 pi (tot.real^2 + tot.imag^2),
    computed on signed integer pairs: every product and sum is formed exactly
    and rounded to nearest by specfun's _round, as each libmp operation rounds,
    and _raw rounds the last product, with 2 pi, to an mpf, so the samples are
    bit for bit those of the mpf operators. The Bessel rows J_m on the radii
    are a process-wide table keyed on (m, radii, precision), _mp_bessel_row,
    of _ROW_TABLE_SIZE entries. A coefficient that is inf or nan raises
    ValueError, with or without ``dps``.
    """
    radii = check_radii(radii)
    for m, vec in enumerate(u.coeffs):
        if (bad := vec[~np.isfinite(vec)]).size:
            raise ValueError(f"degree {m} has a non-finite coefficient {bad[0]}")
    grid = sphere_grid(u.dim, angular)
    if dps is None:
        vals = np.abs(eval_field_grid(u, radii, grid.nodes)) ** 2
        return MagnitudeGrid(u.dim, radii, grid, vals)
    if u.dim != 2:
        raise ValueError("high-precision sampling is only implemented for d = 2")
    if dps < 1:
        raise ValueError(f"dps must be a positive number of digits, got {dps}")
    with mp.workdps(dps):
        degrees = range(u.max_degree + 1)
        prec = mp.prec
        rows = list(zip(*(map(_signed, _mp_bessel_row(m, radii.tobytes(), prec))
                          for m in degrees)))
        coeffs = [[mpc(c) for c in u.coeffs[m]] for m in degrees]
        vals = np.empty((len(radii), angular), dtype=object)
        tm, te = _signed((2 * mp.pi)._mpf_)
        for qi in range(angular):
            # f_m(theta) = c_m e^{i m theta} + c_{-m} e^{-i m theta}, once per
            # angle. The sum over m rounds term by term in ascending m: taylor
            # unmixing amplifies the samples' last-digit rounding, so this
            # order is part of its result.
            f = [coeffs[0][0]]
            for m in degrees[1:]:
                phase = mp.expjpi(mpf(2 * m * qi) / angular)
                f.append(coeffs[m][0] * phase + coeffs[m][1] / phase)
            f = [_signed(z._mpc_[0]) + _signed(z._mpc_[1]) for z in f]
            for ri, jrow in enumerate(rows):
                xr = er = xi = ei = 0
                for (ar, ae, ai, aie), (jm, je) in zip(f, jrow):
                    pm, pe = _round(ar * jm, ae + je, prec)
                    e = er if er < pe else pe
                    xr, er = _round((xr << (er - e)) + (pm << (pe - e)), e, prec)
                    pm, pe = _round(ai * jm, aie + je, prec)
                    e = ei if ei < pe else pe
                    xi, ei = _round((xi << (ei - e)) + (pm << (pe - e)), e, prec)
                xr, er = _round(xr * xr, 2 * er, prec)
                xi, ei = _round(xi * xi, 2 * ei, prec)
                e = er if er < ei else ei
                sq, se = _round((xr << (er - e)) + (xi << (ei - e)), e, prec)
                vals[ri, qi] = mp.make_mpf(_raw(sq * tm, se + te, prec))
    return MagnitudeGrid(2, radii, grid, vals)
