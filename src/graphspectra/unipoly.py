"""Sparse univariate polynomials with exact coefficients.

Coefficients may be Python ints or fractions.Fraction; exponents are
nonnegative ints.  Zero coefficients are never stored, so two equal
polynomials always compare equal term by term.
"""
from __future__ import annotations

from fractions import Fraction


class UniPoly:
    """A sparse polynomial c_0 + c_1 t + ... stored as {exponent: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for k, c in terms.items():
                if k < 0:
                    raise ValueError(f"negative exponent {k}")
                if c:
                    cleaned[int(k)] = c
        self.terms = cleaned

    @classmethod
    def _of(cls, terms):
        """The polynomial holding the dict terms as is: its coefficients
        must be nonzero and its exponents nonnegative ints."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, c, k):
        return cls({k: c})

    @classmethod
    def variable(cls):
        return cls({1: 1})

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return max(self.terms) if self.terms else -1

    def coefficient(self, k):
        return self.terms.get(k, 0)

    def is_integer(self):
        """True when every stored coefficient is an integer value."""
        if not self.terms:
            return True
        for c in self.terms.values():
            # ints first: isinstance against Fraction goes through the ABC machinery
            if not isinstance(c, int) and isinstance(c, Fraction) and c.denominator != 1:
                return False
        return True

    def map_coefficients(self, fn):
        return UniPoly({k: fn(c) for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return UniPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return UniPoly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            if not other:
                return UniPoly.zero()
            return UniPoly._of({k: c * other for k, c in self.terms.items()})
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return UniPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate at x (any value supporting + and *), via Horner on the sparse support."""
        if not self.terms:
            return 0 * x if not isinstance(x, int) else 0
        total = 0
        prev_exp = None
        # Horner over descending exponents: ((c_d x^{d-e} + c_e) x^{e-f} + ...) x^f
        for k in sorted(self.terms, reverse=True):
            if prev_exp is None:
                total = self.terms[k]
            else:
                total = total * x ** (prev_exp - k) + self.terms[k]
            prev_exp = k
        return total * x ** prev_exp if prev_exp else total

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"UniPoly({self.format()})"

    def format(self, var="t"):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*{var}" if c != 1 else var)
            else:
                parts.append(f"{c}*{var}^{k}" if c != 1 else f"{var}^{k}")
        return " + ".join(parts).replace("+ -", "- ")
