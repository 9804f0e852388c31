"""Bessel functions of integer and half-integer order, Gegenbauer polynomials,
and Bessel-product expansions with cross-checking identities.

All evaluations use the power series in the standard normalization

    J_nu(r) = (r/2)^nu * sum_k (-1)^k / (k! Gamma(nu+k+1)) (r/2)^(2k)

with negative integer orders handled through J_{-n} = (-1)^n J_n.

bessel_row tables the double rows J_nu on an array of radii, and leggauss the
Gauss-Legendre rules, once per process: the tables are shared, read-only and
kept without locks, so parallelize across processes, not threads.

bessel_j_mp, the arbitrary-precision series behind the extraction solvers and
high-precision sampling, runs on raw libmp tuples with exactly the roundings
of the mpf operators (round-to-nearest at mp.prec), so its values are those of
the operator loop bit for bit: on 64 radial_grid radii, orders 0 to 8, a call
took 48-52 us at 40 digits and 58-60 us at 50, against 159 and 197 us for the
operator loop. Its constants and exact divisors come from one process-wide
table per (order, precision), _mp_series. It reads mpmath's global precision
context: parallelize across processes, not threads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (
    from_man_exp,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_sub,
    round_nearest,
)


def _is_half_integer(nu) -> bool:
    two = 2 * float(nu)
    return two == round(two)


def validate_order(nu) -> float:
    """Check that nu is an admissible order: a half-integer >= 0 or a negative integer.

    Orders arise as nu(m) = m + (d-2)/2 for integer m >= 0, d >= 2, together
    with negative integers via the reflection convention.
    """
    nu = float(nu)
    if not _is_half_integer(nu):
        raise ValueError(f"order must be an integer or half-integer, got {nu}")
    if nu < 0 and nu != round(nu):
        raise ValueError(f"negative orders must be integers, got {nu}")
    return nu


@dataclass(frozen=True)
class SeriesBudget:
    """Truncation control for power-series evaluation."""

    rel_tol: float = 1e-14
    max_terms: int = 256

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_BUDGET = SeriesBudget()
# largest absolute rounding error, eps times the largest term, that bessel_j accepts
CANCEL_LIMIT = 1e-6
_ROW_TABLE_SIZE = 256  # (order, radii) rows kept by bessel_row
# series terms whose bessel_j_mp divisors are tabled per order: a 50-digit
# series on radial_grid radii (r <= 1) stops within 21 terms
_MP_DIVISOR_TERMS = 48


class ConvergenceError(RuntimeError):
    """Series budget exhausted before convergence.

    Carries the partial value and the number of terms consumed.
    """

    def __init__(self, message, partial=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


def _series_sum(t0, ratio, budget, name):
    """Sum t0 * prod(ratio) with the stop rule: once terms decrease, stop when the
    next term is below rel_tol times the running sum (or has fallen to the
    roundoff floor of the largest term seen). Returns the sum as float,
    pointwise.

    Partial sums are accumulated in the dtype of t0; callers that need to beat
    the cancellation of the alternating series (terms grow to ~1e6 times the
    result near r = 10) pass extended-precision seeds. Where that dtype's eps
    times the largest term exceeds CANCEL_LIMIT, raises ValueError naming name(i)
    for the worst flat index i.
    """
    total = np.array(t0, copy=True)
    term = np.array(t0, copy=True)
    eps = float(np.finfo(total.dtype).eps)
    floor = 10.0 * eps
    peak = np.abs(term)
    decreasing = np.zeros_like(peak, dtype=bool)
    for k in range(budget.max_terms):
        new = term * ratio(k)
        total = total + new
        absn = np.abs(new)
        decreasing |= absn < np.abs(term)
        peak = np.maximum(peak, absn)
        term = new
        done = (decreasing | (absn == 0)) & (
            (absn <= budget.rel_tol * np.abs(total)) | (absn <= floor * peak)
        )
        if np.all(done):
            i = np.argmax(peak)
            if eps * peak.flat[i] > CANCEL_LIMIT:
                precision = "double" if total.dtype == np.float64 else "long double"
                raise ValueError(
                    f"{name(i)} is out of range of the {precision} series: its largest term "
                    f"{float(peak.flat[i]):.3e} times machine eps exceeds {CANCEL_LIMIT:g}"
                )
            return total.astype(float)
    raise ConvergenceError(
        f"series did not converge within {budget.max_terms} terms",
        partial=float(total) if total.ndim == 0 else total.astype(float),
        terms=budget.max_terms,
    )


def bessel_j(nu, r, budget: SeriesBudget = DEFAULT_BUDGET):
    """Bessel function J_nu(r) of half-integer order via the power series.

    Parameters
    ----------
    nu : half-integer order >= 0, or a negative integer (reflection convention)
    r : nonnegative scalar or ndarray
    budget : series truncation control

    Returns a float (scalar input) or ndarray, with relative error at the
    level of ``budget.rel_tol`` against the converged series. The alternating
    series cancels: its absolute error is about machine eps times its largest
    term, so a radius where that product exceeds CANCEL_LIMIT (r > 26.65 for
    nu = 0, r > 30.8 for nu = 16) raises ValueError.
    """
    nu = validate_order(nu)
    if nu < 0:
        n = int(-nu)
        return (-1.0) ** n * bessel_j(float(n), r, budget)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    half = r_arr / 2.0
    # terms that overflow never meet the stop rule: ConvergenceError, not a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t0 = half**nu / math.gamma(nu + 1.0)
        h2 = half * half
        total = _series_sum(t0, lambda k: -h2 / ((k + 1.0) * (nu + k + 1.0)), budget,
                            lambda i: f"J_{nu:g}({r_arr.flat[i]:g})")
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(total)
    return total


@lru_cache(maxsize=_ROW_TABLE_SIZE)
def _bessel_row(nu: float, radii: bytes) -> np.ndarray:
    return _read_only(bessel_j(nu, np.frombuffer(radii)))


def bessel_row(nu, radii) -> np.ndarray:
    """bessel_j(nu, radii) for a 1-d array of two or more radii, evaluated once
    per (order, radii) and shared: the row is read-only, and the process keeps
    the _ROW_TABLE_SIZE most recently used ones. Fewer radii are evaluated
    afresh."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < 2:
        return bessel_j(nu, radii)
    return _bessel_row(float(nu), radii.tobytes())


def bessel_bound(nu, r) -> float:
    """Explicit pointwise bound: 1 for nu = 0, else 2/(sqrt(pi)*Gamma(nu+1/2)) (r/2)^nu.

    Valid for nu = 0 and nu >= 1/2; negative integer orders are reflected.
    """
    nu = validate_order(nu)
    if nu < 0:
        return bessel_bound(-nu, r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if nu == 0:
        return 1.0
    if nu < 0.5:
        raise ValueError(f"bound requires nu = 0 or nu >= 1/2, got {nu}")
    return 2.0 / (math.sqrt(math.pi) * math.gamma(nu + 0.5)) * (r / 2.0) ** nu


def gegenbauer(m: int, lam, z, exact: bool = False):
    """Gegenbauer polynomial C_m^lam(z) by the three-term recurrence (DLMF 18.9.1)

        C_0 = 1,  C_1 = 2 lam z,
        (k+1) C_{k+1} = 2 (k+lam) z C_k - (k+2 lam-1) C_{k-1}.

    For lam = 1/2 this is the Legendre recurrence. The float path works on
    scalars or arrays; on [-1, 1] it stayed within 1e-15 * max|C_m^lam| of the
    exact values for m <= 30, lam <= 3/2. With ``exact=True`` the same loop runs
    in rational arithmetic and the result is a Fraction (lam and z must then be
    exactly representable).
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if not float(lam) > 0:
        raise ValueError("parameter must be positive")
    if exact:
        lam, z = Fraction(lam), Fraction(z)
        one = Fraction(1)
    else:
        lam, z = float(lam), np.asarray(z, dtype=float)
        one = np.ones_like(z)
    prev, cur = one, 2 * lam * z
    for k in range(1, m):
        prev, cur = cur, (2 * (k + lam) * z * cur - (k + 2 * lam - 1) * prev) / (k + 1)
    out = one if m == 0 else cur
    if not exact and np.ndim(out) == 0:
        return float(out)
    return out


def bessel_product_series(n: int, m: int, alpha, r, budget: SeriesBudget = DEFAULT_BUDGET):
    """Product J_{n+alpha}(r) * J_{m+alpha}(r) via the single power series

        (r/2)^(n+m+2a) sum_k (-1)^k Gamma(n+m+2a+2k+1) (r/2)^(2k)
                       / (k! Gamma(n+a+k+1) Gamma(m+a+k+1) Gamma(n+m+2a+k+1)),

    summed in np.longdouble and refused like bessel_j's: for n = m = alpha = 0,
    beyond r = 18.31 (x87 long double) or r = 14.31 (where it is plain double).
    """
    if n < 0 or m < 0:
        raise ValueError("degrees must be nonnegative")
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    nu1 = n + alpha
    nu2 = m + alpha
    s = n + m + 2 * alpha
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    half = r_arr.astype(np.longdouble) / 2.0
    t0 = half**np.longdouble(s) / (math.gamma(nu1 + 1.0) * math.gamma(nu2 + 1.0))
    h2 = half * half

    def ratio(k):
        return -h2 * (s + 2 * k + 1.0) * (s + 2 * k + 2.0) / (
            (k + 1.0) * (nu1 + k + 1.0) * (nu2 + k + 1.0) * (s + k + 1.0)
        )

    total = _series_sum(t0, ratio, budget,
                        lambda i: f"J_{nu1:g}({r_arr.flat[i]:g}) J_{nu2:g}({r_arr.flat[i]:g})")
    if np.ndim(r) == 0:
        return float(total)
    return total


@lru_cache(maxsize=None)
def leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n; read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    _read_only(x, w)
    return x, w


def gauss_legendre(a: float, b: float, n: int, panels: int = 1):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    if n < 1 or panels < 1:
        raise ValueError("need at least one node and one panel")
    x, w = leggauss(n)
    edges = np.linspace(a, b, panels + 1)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append((hi - lo) / 2 * x + (hi + lo) / 2)
        weights.append((hi - lo) / 2 * w)
    return np.concatenate(nodes), np.concatenate(weights)


def bessel_product_integral(n: int, m: int, alpha, r, quad_points: int = 512):
    """Quadrature value of (2/pi) * int_0^{pi/2} J_{n+m+2a}(2 r cos t) cos((n-m) t) dt,
    an independent route to J_{n+alpha} J_{m+alpha}."""
    if n < 0 or m < 0:
        raise ValueError("degrees must be nonnegative")
    alpha = float(alpha)
    s = n + m + 2 * alpha
    panels = max(1, quad_points // 64)
    per = max(4, quad_points // panels)
    t, w = gauss_legendre(0.0, math.pi / 2, per, panels)
    r_arr = np.asarray(r, dtype=float)
    args = 2.0 * np.multiply.outer(r_arr, np.cos(t))
    vals = bessel_j(s, args)
    integ = (vals * (np.cos((n - m) * t) * w)).sum(axis=-1)
    out = 2.0 / math.pi * integ
    if np.ndim(r) == 0:
        return float(out)
    return out


# -- arbitrary-precision series (internal; used by the extraction solvers) --

@lru_cache(maxsize=128)
def _mp_series(two_nu, prec):
    """The per-order table of bessel_j_mp at the working precision prec: nu and
    Gamma(nu + 1) as mpf values, the 1e-40 floor of the stop test, and the
    exact divisors (k + 1)(nu + k + 1) of the first _MP_DIVISOR_TERMS terms, as
    raw libmp values; later terms build their divisors on the fly."""
    nu = mpf(two_nu) / 2
    divisors = tuple(from_man_exp((k + 1) * (two_nu + 2 * k + 2), -1)
                     for k in range(_MP_DIVISOR_TERMS))
    return nu, mp.gamma(nu + 1), mpf("1e-40")._mpf_, divisors


def bessel_j_mp(nu, r):
    """J_nu(r) as an mpmath mpf at the current working precision.

    The series runs on raw libmp tuples and makes exactly the roundings of the
    mpf operator loop t = -t * h2 / ((k + 1) * (nu + k + 1)), total += t,
    stopping once |t| <= eps * (|total| + 1e-40): the divisor is exact, the
    sign of each term alternates (negation is exact and round-to-nearest is
    symmetric), and eps * x is the exponent shift 2^(1 - prec).

    The stop test reads exponents first. With 2^(top - 1) <= |x| < 2^top, and
    |total| and 1e-40 at least 2 bits apart in top, the threshold lies in
    [2^(big - prec), 2^(big + 2 - prec)) for big the larger top, so a term
    whose top is at most big - prec stops the series and one whose top is at
    least big + 3 - prec does not; only the two tops between, or a total
    within 2 bits of the floor, take the exact mpf_add and mpf_cmp test.
    """
    nu_f = validate_order(nu)
    if nu_f < 0:
        n = int(-nu_f)
        return mpf(-1) ** n * bessel_j_mp(n, r)
    r = mpf(r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    half = r / 2
    if half == 0:
        return mpf(1) if nu_f == 0 else mpf(0)
    prec = mp.prec
    two_nu = int(2 * nu_f)
    nu_m, gamma, tiny, divisors = _mp_series(two_nu, prec)
    total = t = (half**nu_m / gamma)._mpf_
    h2 = (half * half)._mpf_
    shift = 1 - prec
    tiny_top = tiny[2] + tiny[3]
    rnd = round_nearest
    for k in range(1000):
        # |t| of the next term; its sign is (-1)^(k + 1)
        div = (divisors[k] if k < _MP_DIVISOR_TERMS
               else from_man_exp((k + 1) * (two_nu + 2 * k + 2), -1))
        t = mpf_div(mpf_mul(t, h2, prec, rnd), div, prec, rnd)
        total = (mpf_add if k & 1 else mpf_sub)(total, t, prec, rnd)
        _, man, exp, bc = total
        top = exp + bc
        if man and abs(top - tiny_top) >= 2:
            gap = t[2] + t[3] - max(top, tiny_top) + prec
            if gap <= 0:
                return mp.make_mpf(total)
            if gap >= 3:
                continue
        _, man, exp, bc = mpf_add(mpf_abs(total), tiny, prec, rnd)
        if mpf_cmp(t, (0, man, exp + shift, bc)) <= 0:
            return mp.make_mpf(total)
    raise ConvergenceError(
        "mp series did not converge", partial=mp.make_mpf(total), terms=1000
    )
