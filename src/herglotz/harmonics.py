"""Spherical-harmonic bases on S^{d-1}.

Three basis families are supported:

* ``fourier2d`` (d = 2): degree m spanned by e^{i m t}, e^{-i m t};
* ``zonal`` (d >= 3): Gegenbauer zonal functions C_m^{d/2-1}(<theta, zeta_m^j>)
  with a deterministic pole table, zeta_m^1 fixed to e_d;
* ``palpha`` (d >= 3): the harmonic homogeneous polynomials p_alpha, the
  harmonic parts of the monomials x^alpha (a finite Laplacian series in exact
  rationals, equal to the paper's normalized derivatives of |x|^{2-d}),
  indexed by multi-indices with |alpha| = m and alpha_d in {0, 1}.

Plus quadrature grids on the sphere and numerical Gram-rank tests.
"""

import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .poly import Polynomial
from .specfun import _read_only, gegenbauer, leggauss

SURFACE_TOL = 1e-12
POLE_MIN_SV = 1e-3  # see default_poles
POLE_MAX_ATTEMPTS = 60
RANK_TOL = 1e-10  # see gram_rank
_TABLE_SIZE = 64  # entries kept by each lru_cache table below; a field reads ~13 value entries


def surface_measure(d: int) -> float:
    """sigma(S^{d-1}) = 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def harmonic_dim(d: int, m: int) -> int:
    """Dimension N(m) of the degree-m spherical harmonics in R^d.

    N(m) = C(m+d-1, m) - C(m+d-3, m-2), the second term dropped for m < 2.
    """
    if d < 2 or m < 0:
        raise ValueError("need d >= 2 and m >= 0")
    first = math.comb(m + d - 1, m)
    second = math.comb(m + d - 3, m - 2) if m >= 2 else 0
    return first - second


def degree_multi_indices(d: int, m: int):
    """Multi-indices alpha with |alpha| = m and alpha_d in {0, 1}, in a fixed order.

    The order is: alpha_d = 0 block first, then alpha_d = 1, each block sorted
    by descending lexicographic order of the first d-1 entries. The count
    equals harmonic_dim(d, m).
    """
    # product over descending ranges runs in descending lexicographic order
    return [
        head + (last,)
        for last in (0, 1)
        for head in itertools.product(range(m - last, -1, -1), repeat=d - 1)
        if sum(head) == m - last
    ]


def p_alpha(alpha, d: int) -> Polynomial:
    """Harmonic homogeneous polynomial p_alpha of degree m = |alpha| in R^d (d >= 3).

    The paper defines

        p_alpha = (-1)^m / (2^m ((d-2)/2)_m) |x|^{d-2+2m} d^alpha |x|^{2-d},

    which is the harmonic part of x^alpha in the Fischer decomposition
    x^alpha = p_alpha + |x|^2 q_alpha. That part is the finite Laplacian series

        p_alpha = sum_{j <= m/2} c_j |x|^{2j} Laplacian^j x^alpha,
        c_j = (-1)^j / (2^j j! prod_{i=1}^{j} (d + 2m - 2 - 2i)),

    evaluated here in exact rationals (every factor d + 2m - 2 - 2i is at
    least d + m - 2 > 0).
    """
    if d < 3:
        raise ValueError("p_alpha basis requires dimension d >= 3")
    alpha = tuple(alpha)
    if len(alpha) != d or any(a < 0 for a in alpha):
        raise ValueError("alpha must be a nonnegative multi-index of length d")
    m = sum(alpha)
    terms = [Polynomial.monomial(alpha)]  # c_j Laplacian^j x^alpha
    for j in range(1, m // 2 + 1):
        terms.append(terms[-1].laplacian() * Fraction(-1, 2 * j * (d + 2 * m - 2 - 2 * j)))
    # Horner in |x|^2, t_0 + |x|^2 (t_1 + |x|^2 (t_2 + ...)): each step
    # multiplies by the d terms of |x|^2 instead of by a power of it
    rho = Polynomial.radius_sq(d)
    out = terms.pop()
    while terms:
        out = terms.pop() + rho * out
    return out


def laplacian(p: Polynomial) -> Polynomial:
    """Exact symbolic Laplacian of a polynomial."""
    return p.laplacian()


# --------------------------------------------------------------------------
# sphere grids


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Quadrature nodes and positive weights on S^{d-1}, summing to the surface
    measure; for d >= 3, nodes[:, -1] == np.repeat(polar_t, azimuth_count).
    Grids compare and hash by identity."""

    dim: int
    nodes: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,)
    angles: np.ndarray | None = None  # d=2: the angle of each node
    polar_t: np.ndarray | None = None  # d>=3: polar rule nodes in x_d
    sub: "SphereGrid | None" = None  # d>=3: the S^{d-2} factor grid

    def __len__(self):
        return len(self.weights)

    @property
    def azimuth_count(self) -> int:  # d>=3: S^{d-2} nodes per polar node
        return len(self.sub) if self.sub is not None else 0

    def integrate(self, values):
        return np.asarray(values) @ self.weights


def _polar_rule(d: int, count: int):
    """Gauss rule (t, w) of ``count`` nodes in t = x_d for the Gegenbauer weight
    (1 - t^2)^(lam - 1/2), lam = d/2 - 1, exact to degree 2 count - 1, and
    inv_norm[q] = 1 / int C^lam_q(t)^2 (1 - t^2)^(lam - 1/2) dt for q < count:
    Gauss-Legendre and (2q + 1)/2 for d = 3, Chebyshev-U and 2/pi for d = 4."""
    if d == 3:
        t, w = leggauss(count)
        return t, w, (2 * np.arange(count) + 1) / 2.0
    if d == 4:
        k = np.arange(1, count + 1)
        t = np.cos(k * np.pi / (count + 1))
        w = np.pi / (count + 1) * np.sin(k * np.pi / (count + 1)) ** 2
        return t, w, np.full(count, 2 / np.pi)
    raise ValueError(f"unsupported dimension {d} (polar rules exist for d in {{3, 4}})")


@lru_cache(maxsize=_TABLE_SIZE)
def sphere_grid(d: int, resolution: int) -> SphereGrid:
    """Quadrature grid on S^{d-1}, built once per (d, resolution) and shared:
    its arrays are read-only.

    d=2: ``resolution`` uniform angles with equal weights (exact for
    trigonometric polynomials of degree < resolution).
    d=3, 4: the polar rule of ``resolution`` nodes in the last coordinate x_d
    (Gauss-Legendre for d=3, Gauss-Chebyshev of the second kind for d=4; see
    _polar_rule) crossed with sphere_grid(d-1, .) scaled by sqrt(1 - x_d^2):
    2*resolution uniform azimuths for d=3, sphere_grid(3, resolution) for d=4.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if d == 2:
        ang = 2 * np.pi * np.arange(resolution) / resolution
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(resolution, 2 * np.pi / resolution)
        _read_only(ang, nodes, weights)
        return SphereGrid(2, nodes, weights, angles=ang)
    if d in (3, 4):
        t, w, _ = _polar_rule(d, resolution)
        sub = sphere_grid(d - 1, 2 * resolution if d == 3 else resolution)
        ring = np.sqrt(1.0 - t**2)[:, None, None] * sub.nodes
        nodes = np.column_stack([ring.reshape(-1, d - 1), np.repeat(t, len(sub))])
        weights = np.outer(w, sub.weights).ravel()
        _read_only(t, nodes, weights)
        return SphereGrid(d, nodes, weights, polar_t=t, sub=sub)
    raise ValueError(f"unsupported dimension {d} (grids exist for d in {{2, 3, 4}})")


def _check_unit(v, name, tol=SURFACE_TOL):
    v = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(v) - 1.0) <= tol:  # nan is not a unit vector
        raise ValueError(f"{name} must be a unit vector")
    return v


def zonal_eval(m: int, d: int, zeta, theta):
    """Zonal harmonic C_m^{d/2-1}(<theta, zeta>) for unit vectors theta, zeta."""
    zeta = _check_unit(zeta, "zeta")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        _check_unit(theta, "theta")
    return gegenbauer(m, d / 2 - 1, theta @ zeta)


# --------------------------------------------------------------------------
# pole tables for zonal bases


def _candidate_poles(d: int, m: int, attempt: int) -> np.ndarray:
    n = harmonic_dim(d, m)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[d, m, attempt]))
    pts = rng.standard_normal((n, d))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts[0] = np.eye(d)[d - 1]
    return pts


@lru_cache(maxsize=_TABLE_SIZE)
def default_poles(d: int, m: int) -> np.ndarray:
    """Deterministic pole table zeta_m^j for the degree-m zonal basis, computed
    once per (d, m) and shared: the table is read-only.

    Seeded unit vectors with zeta_m^1 = e_d; up to POLE_MAX_ATTEMPTS candidates
    are generated until both the basis functions and their squares pass a
    Gram-rank test with normalized minimum singular value above POLE_MIN_SV
    (keeping the best candidate as fallback).
    """
    n = harmonic_dim(d, m)
    if m == 0 or n == 1:
        return _read_only(np.eye(d)[d - 1][None, :])
    # The squares have degree 2m, so their Gram matrix needs a rule exact to
    # degree 4m; sphere_grid(d, n) is exact to polar and azimuthal degree
    # 2n - 1 (the polar rule sits in the last coordinate).
    grid = sphere_grid(d, 2 * m + 1)
    best = None
    for attempt in range(POLE_MAX_ATTEMPTS):
        pts = _candidate_poles(d, m, attempt)
        vals = gegenbauer(m, d / 2 - 1, np.stack([grid.nodes @ z for z in pts], axis=1))
        r1, s1 = gram_rank([vals[:, j] for j in range(n)], grid)
        r2, s2 = gram_rank([vals[:, j] ** 2 for j in range(n)], grid)
        score = min(s1, s2)
        if r1 == n and r2 == n and score > POLE_MIN_SV:
            return _read_only(pts)
        if best is None or score > best[0]:
            best = (score, pts, r1, r2)
    score, pts, r1, r2 = best
    if r1 < n or r2 < n:
        raise RuntimeError(
            f"could not generate an independent pole system for d={d}, m={m}"
        )
    return _read_only(pts)


@lru_cache(maxsize=_TABLE_SIZE)
def _palpha_table(d: int, m: int) -> tuple:
    """The p_alpha polynomials of degree m, built once per (d, m) and shared."""
    return tuple(p_alpha(a, d) for a in degree_multi_indices(d, m))


# --------------------------------------------------------------------------
# basis specification


FOURIER2D = "fourier2d"
ZONAL = "zonal"
PALPHA = "palpha"
KINDS = (FOURIER2D, ZONAL, PALPHA)


def _evaluate(kind: str, dim: int, m: int, poles, theta: np.ndarray) -> np.ndarray:
    """Values of the degree-m functions at points theta (n, d) -> (n, N(m));
    poles is the degree's pole table for the zonal family, else None."""
    if kind == FOURIER2D:
        ang = np.arctan2(theta[:, 1], theta[:, 0])
        if m == 0:
            return np.ones((len(theta), 1), dtype=complex)
        return np.stack([np.exp(1j * m * ang), np.exp(-1j * m * ang)], axis=1)
    if kind == ZONAL:
        z = np.stack([theta @ pole for pole in poles], axis=1)
        return gegenbauer(m, dim / 2 - 1, z)
    return np.stack([p.evaluate(theta) for p in _palpha_table(dim, m)], axis=1)


_ARRAY_KEYS: dict = {}  # id(array) -> (weak reference to it, its bytes)


def _array_key(a: np.ndarray) -> bytes:
    """The bytes of an array, as a table key. Those of a read-only array that
    owns its memory are taken once while it lives (_ARRAY_KEYS): no code can
    write to it while it stays read-only, so its key cannot go stale. The
    sphere_grid nodes and angles and the default_poles tables are such arrays.
    Every other array is read afresh on each call."""
    if a.flags.writeable or not a.flags.owndata:
        return a.tobytes()
    entry = _ARRAY_KEYS.get(id(a))
    if entry is None or entry[0]() is not a:
        # the dict is bound, not looked up: an array may outlive the module's globals
        ref = weakref.ref(a, lambda _, i=id(a), keys=_ARRAY_KEYS: keys.pop(i, None))
        entry = _ARRAY_KEYS[id(a)] = (ref, a.tobytes())
    return entry[1]


_array_key.cache_clear = _ARRAY_KEYS.clear  # emptied with the lru_cache tables


@lru_cache(maxsize=_TABLE_SIZE)
def _value_table(kind: str, dim: int, m: int, poles: bytes | None, shape: tuple,
                 nodes: bytes) -> np.ndarray:
    """_evaluate on the pole table and node array given by their bytes, once
    per key and shared: the values are read-only."""
    if poles is not None:
        poles = np.frombuffer(poles).reshape(-1, dim)
    return _read_only(_evaluate(kind, dim, m, poles, np.frombuffer(nodes).reshape(shape)))


@lru_cache(maxsize=_TABLE_SIZE)
def _trig_table(m: int, angles: bytes) -> np.ndarray:
    """(cos m t, sin m t) on the angles given by their bytes, or the constant 1
    for m = 0; once per key and shared (read-only)."""
    ang = np.frombuffer(angles)
    if m == 0:
        return _read_only(np.ones((len(ang), 1)))
    return _read_only(np.stack([np.cos(m * ang), np.sin(m * ang)], axis=1))


@dataclass(eq=False)
class BasisSpec:
    """Which spherical-harmonic basis is in force.

    poles maps degree -> (N(m), d) array for the zonal family; a degree it
    lacks is filled from default_poles when first asked for. A basis keeps no
    other state: the default pole tables, the p_alpha polynomials and the
    values on node arrays (see values) are built once per process and
    shared by every basis. No table is locked: parallelize across processes,
    not threads. Every decision that turns on the kind is a method here.
    """

    kind: str
    dim: int
    poles: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError(f"dimension d = {self.dim} is below 2")
        if self.kind == FOURIER2D and self.dim != 2:
            raise ValueError(f"fourier2d basis requires d = 2, got d = {self.dim}")
        if self.kind in (ZONAL, PALPHA) and self.dim < 3:
            raise ValueError(f"{self.kind} basis requires d >= 3, got d = {self.dim}")
        for m, table in self.poles.items():
            table = np.asarray(table, dtype=float)
            if table.shape != (harmonic_dim(self.dim, m), self.dim):
                raise ValueError(f"pole table for degree {m} has wrong shape")
            norms = np.linalg.norm(table, axis=1)
            if not np.all(np.abs(norms - 1) <= SURFACE_TOL):  # nan is not a unit vector
                raise ValueError(f"pole table for degree {m} contains non-unit vectors")
            self.poles[m] = table

    def poles_for(self, m: int) -> np.ndarray:
        if self.kind != ZONAL:
            raise ValueError("pole tables only exist for the zonal basis")
        if m not in self.poles:
            self.poles[m] = default_poles(self.dim, m)
        return self.poles[m]

    def palpha_for(self, m: int) -> tuple:
        return _palpha_table(self.dim, m)

    def values(self, m: int, theta) -> np.ndarray:
        """Degree-m basis values at points theta (n, d) -> (n, N(m)).

        An array of two or more nodes reads _value_table, keyed on the kind, d,
        m, the degree's pole table and the nodes' shape and bytes (_array_key):
        every basis with the same functions shares one entry. A single point is
        evaluated afresh.
        """
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        poles = self.poles_for(m) if self.kind == ZONAL else None
        if len(theta) < 2:
            return _evaluate(self.kind, self.dim, m, poles, theta)
        key = None if poles is None else _array_key(poles)
        return _value_table(self.kind, self.dim, m, key, theta.shape, _array_key(theta))

    def gram(self, m: int) -> np.ndarray:
        """L^2(S^{d-1}) Gram matrix of the degree-m basis functions: the
        identity for fourier2d, a quadrature for the real bases."""
        if self.kind == FOURIER2D:
            return np.eye(harmonic_dim(2, m))
        grid = sphere_grid(self.dim, max(2 * m + 4, 8))
        F = self.values(m, grid.nodes)
        return F.T @ (F * grid.weights[:, None])

    def power(self, m: int, vec) -> float:
        """a* gram(m) a for degree-m coefficients a = vec: a sum of squares for fourier2d."""
        if self.kind == FOURIER2D:
            return float(np.sum(np.abs(vec) ** 2))
        return float((np.conj(vec) @ self.gram(m) @ vec).real)

    def conjugate(self, m: int, vec) -> np.ndarray:
        """Degree-m coefficients of conj(f) for f with coefficients vec: the
        (+m, -m) entries swapped and conjugated for fourier2d, else vec conjugated."""
        if self.kind == FOURIER2D and m >= 1:
            return np.array([np.conj(vec[1]), np.conj(vec[0])])
        return np.conj(vec)

    def real_part(self, m: int, vec) -> np.ndarray:
        """Degree-m coefficients of a real function drawn from vec: (a, conj(a))
        from the +m entry a for fourier2d, else the real parts."""
        if self.kind == FOURIER2D and m >= 1:
            return np.array([vec[0], np.conj(vec[0])])
        return vec.real.astype(complex)

    def real_values(self, m: int, grid: SphereGrid) -> np.ndarray:
        """Real degree-m functions on the grid (read-only): (cos m t, sin m t)
        for fourier2d (_trig_table), the basis functions for the real bases."""
        if self.kind == FOURIER2D:
            return _trig_table(m, _array_key(grid.angles))
        return np.real(self.values(m, grid.nodes))

    def real_coeffs(self, m: int, vec: np.ndarray) -> np.ndarray:
        """Degree-m coefficients of the real function real_values(m, .) @ vec."""
        if self.kind != FOURIER2D:
            return vec.astype(complex)
        if m == 0:
            return np.array([vec[0] + 0j])
        a, b = vec
        return np.array([(a - 1j * b) / 2, (a + 1j * b) / 2])

    def require_same(self, other: "BasisSpec", max_degree: int):
        """ValueError unless other holds the same functions up to max_degree:
        equal d and kind, and zonal pole tables within 1e-12."""
        if self.dim != other.dim:
            raise ValueError("fields have different dimensions")
        if self.kind != other.kind:
            raise ValueError("fields use different bases")
        if self.kind == ZONAL:
            for m in range(max_degree + 1):
                a, b = self.poles_for(m), other.poles_for(m)
                # a table is finite (__post_init__), so one array is close to itself
                if a is not b and not np.allclose(a, b, atol=1e-12):
                    raise ValueError("zonal pole tables differ")


def fourier2d_basis() -> BasisSpec:
    return BasisSpec(FOURIER2D, 2)


def basis_eval(spec: BasisSpec, m: int, j: int, theta):
    """Value of the j-th degree-m basis function at the unit vector theta.

    For fourier2d the index set is j=1 -> e^{i m t}, j=2 -> e^{-i m t}.
    """
    n = harmonic_dim(spec.dim, m)
    if not 1 <= j <= n:
        raise IndexError(f"basis index {j} out of range 1..{n} for degree {m}")
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    if single:
        _check_unit(theta, "theta")
    vals = spec.values(m, theta)[..., j - 1]
    if single:
        v = vals[0]
        return complex(v) if spec.kind == FOURIER2D else float(v.real if np.iscomplexobj(v) else v)
    return vals


def gram_rank(functions, grid: SphereGrid):
    """Numerical rank of the Gram matrix of the given sphere functions.

    ``functions`` may be callables on points or arrays of node values. Returns
    (rank, smallest singular value of the diagonally normalized Gram); the
    rank counts the singular values above RANK_TOL times the largest.
    """
    cols = []
    for f in functions:
        vals = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
        if len(vals) != len(grid):
            raise ValueError("function values do not match the grid")
        cols.append(vals)
    F = np.stack(cols, axis=1)
    G = F.T @ (F * grid.weights[:, None])
    diag = np.sqrt(np.abs(np.diag(G)))
    # zero functions add nothing to the rank; normalize the rest
    nz = diag > 0
    if not np.any(nz):
        return 0, 0.0
    dn = 1 / diag[nz]
    Gn = G[np.ix_(nz, nz)] * dn[:, None] * dn[None, :]
    sv = np.linalg.svd(Gn, compute_uv=False)
    return int((sv > RANK_TOL * sv[0]).sum()), float(sv[-1])
