"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are keyed by exponent tuples; coefficients are Fractions (or floats
when a float sneaks in through arithmetic, which the harmonic-polynomial
construction never allows). Zero coefficients are never stored.
"""

from fractions import Fraction

import numpy as np


class Polynomial:
    """Immutable-by-convention sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        cleaned = {}
        for alpha, c in (terms or {}).items():
            if len(alpha) != nvars:
                raise ValueError(f"exponent tuple {alpha} has wrong length")
            if c != 0:
                cleaned[tuple(alpha)] = c
        self.terms = cleaned

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {tuple(0 for _ in range(nvars)): Fraction(c)})

    @classmethod
    def monomial(cls, alpha, c=1):
        return cls(len(alpha), {tuple(alpha): Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {alpha: Fraction(1)})

    @classmethod
    def radius_sq(cls, nvars):
        """x_1^2 + ... + x_nvars^2."""
        terms = {}
        for i in range(nvars):
            alpha = tuple(2 if j == i else 0 for j in range(nvars))
            terms[alpha] = Fraction(1)
        return cls(nvars, terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def is_homogeneous(self):
        degs = {sum(a) for a in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.nvars, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(self.nvars, {a: c * other for a, c in self.terms.items()})
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def laplacian(self):
        out = {}
        for a, c in self.terms.items():
            for i in range(self.nvars):
                if a[i] >= 2:
                    b = list(a)
                    b[i] -= 2
                    key = tuple(b)
                    out[key] = out.get(key, Fraction(0)) + c * a[i] * (a[i] - 1)
        return Polynomial(self.nvars, out)

    def evaluate(self, x):
        """Float evaluation at points x of shape (..., nvars)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        vals = np.zeros(pts.shape[:-1])
        if self.terms:
            # per-variable power tables; monomial evaluation is then lookups
            maxexp = [0] * self.nvars
            for a in self.terms:
                for i, e in enumerate(a):
                    maxexp[i] = max(maxexp[i], e)
            pows = []
            for i in range(self.nvars):
                tab = [np.ones(pts.shape[:-1])]
                for _ in range(maxexp[i]):
                    tab.append(tab[-1] * pts[..., i])
                pows.append(tab)
            for a, c in self.terms.items():
                t = float(c) * np.ones(pts.shape[:-1])
                for i, e in enumerate(a):
                    if e:
                        t = t * pows[i][e]
                vals += t
        return float(vals[0]) if single else vals

    def divide_exact(self, divisor):
        """Return q with self == q * divisor, or None if no exact quotient exists.

        Single-divisor multivariate division under lexicographic order; the
        remainder vanishes iff the division is exact.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead = max(divisor.terms)  # lex order on exponent tuples
        lead_c = divisor.terms[lead]
        rem = dict(self.terms)
        quot = {}
        while rem:
            a = max(rem)
            c = rem[a]
            if any(ai < li for ai, li in zip(a, lead)):
                return None
            qa = tuple(ai - li for ai, li in zip(a, lead))
            qc = c / lead_c
            quot[qa] = quot.get(qa, Fraction(0)) + qc
            for b, cb in divisor.terms.items():
                key = tuple(x + y for x, y in zip(qa, b))
                newc = rem.get(key, Fraction(0)) - qc * cb
                if newc == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = newc
        return Polynomial(self.nvars, quot)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for a in sorted(self.terms, reverse=True):
            c = self.terms[a]
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(a) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Polynomial(" + " + ".join(bits) + ")"
