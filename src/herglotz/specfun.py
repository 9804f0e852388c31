"""Bessel functions of integer and half-integer order, Gegenbauer polynomials,
and Bessel-product expansions with cross-checking identities.

All evaluations use the power series in the standard normalization

    J_nu(r) = (r/2)^nu * sum_k (-1)^k / (k! Gamma(nu+k+1)) (r/2)^(2k)

with negative integer orders handled through J_{-n} = (-1)^n J_n.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf


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


class ConvergenceError(RuntimeError):
    """Series budget exhausted before convergence.

    Carries the partial value and the number of terms consumed.
    """

    def __init__(self, message, partial=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


def _series_sum(t0, ratio, budget):
    """Sum t0 * prod(ratio) with the stop rule: once terms decrease, stop when the
    next term is below rel_tol times the running sum (or has fallen to the
    roundoff floor of the largest term seen).

    Partial sums are accumulated in the dtype of t0; callers that need to beat
    the cancellation of the alternating series (terms grow to ~1e6 times the
    result near r = 10) pass extended-precision seeds.
    """
    total = np.array(t0, copy=True)
    term = np.array(t0, copy=True)
    floor = 10.0 * float(np.finfo(total.dtype).eps)
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
            return total.astype(float), k + 2
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
    level of ``budget.rel_tol`` against the converged series.
    """
    nu = validate_order(nu)
    if nu < 0:
        n = int(-nu)
        return (-1.0) ** n * bessel_j(float(n), r, budget)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("r must be nonnegative")
    half = r_arr / 2.0
    with np.errstate(divide="ignore"):
        t0 = half**nu / math.gamma(nu + 1.0)
    h2 = half * half
    total, _ = _series_sum(t0, lambda k: -h2 / ((k + 1.0) * (nu + k + 1.0)), budget)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(total)
    return total


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


def _pochhammer_fraction(lam: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= lam + i
    return out


def gegenbauer(m: int, lam, z, exact: bool = False):
    """Gegenbauer polynomial C_m^lam(z) as the finite sum

        sum_{k=0}^{floor(m/2)} (-1)^k (lam)_{m-k} / (k! (m-2k)!) (2z)^(m-2k).

    With ``exact=True`` the sum is carried out in rational arithmetic and the
    result is a Fraction (lam and z must then be exactly representable).
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if not float(lam) > 0:
        raise ValueError("parameter must be positive")
    if exact:
        lam_f = Fraction(lam)
        z_f = Fraction(z)
        total = Fraction(0)
        for k in range(m // 2 + 1):
            c = (
                (-1) ** k
                * _pochhammer_fraction(lam_f, m - k)
                / (math.factorial(k) * math.factorial(m - 2 * k))
            )
            total += c * (2 * z_f) ** (m - 2 * k)
        return total
    lam = float(lam)
    z_arr = np.asarray(z, dtype=float)
    total = np.zeros_like(z_arr)
    for k in range(m // 2 + 1):
        poch = math.exp(math.lgamma(m - k + lam) - math.lgamma(lam))
        c = (-1) ** k * poch / (math.factorial(k) * math.factorial(m - 2 * k))
        total = total + c * (2 * z_arr) ** (m - 2 * k)
    if np.ndim(z) == 0:
        return float(total)
    return total


def bessel_product_series(n: int, m: int, alpha, r, budget: SeriesBudget = DEFAULT_BUDGET):
    """Product J_{n+alpha}(r) * J_{m+alpha}(r) via the single power series

        (r/2)^(n+m+2a) sum_k (-1)^k Gamma(n+m+2a+2k+1) (r/2)^(2k)
                       / (k! Gamma(n+a+k+1) Gamma(m+a+k+1) Gamma(n+m+2a+k+1)).
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

    total, _ = _series_sum(t0, ratio, budget)
    if np.ndim(r) == 0:
        return float(total)
    return total


_leggauss_cache: dict = {}


def gauss_legendre(a: float, b: float, n: int, panels: int = 1):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    if n < 1 or panels < 1:
        raise ValueError("need at least one node and one panel")
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    x, w = _leggauss_cache[n]
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

def bessel_j_mp(nu, r):
    """J_nu(r) as an mpmath mpf at the current working precision."""
    nu_f = validate_order(nu)
    if nu_f < 0:
        n = int(-nu_f)
        return mpf(-1) ** n * bessel_j_mp(n, r)
    nu_m = mpf(2 * nu_f) / 2
    r = mpf(r)
    if r < 0:
        raise ValueError("r must be nonnegative")
    half = r / 2
    if half == 0:
        return mpf(1) if nu_f == 0 else mpf(0)
    t = half**nu_m / mp.gamma(nu_m + 1)
    total = t
    h2 = half * half
    eps, tiny = mp.eps, mpf("1e-40")
    for k in range(1000):
        t = -t * h2 / ((k + 1) * (nu_m + k + 1))
        total += t
        if abs(t) <= eps * (abs(total) + tiny):
            return total
    raise ConvergenceError("mp series did not converge", partial=total, terms=1000)
