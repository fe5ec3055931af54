"""Finitely supported group-ring vectors with exact Gaussian-rational
coefficients, and the norms on them.

Arithmetic stays exact; only the final p-norm values leave exact land
(float), with `lq_pow_exact` available when the q-th power of the norm is
itself rational.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelMismatchError, UsageError
from .groups import GroupElement, GroupModel

_ZERO = Fraction(0)
_TINY = sys.float_info.min  # the smallest normal float


def _sqrt(square: Fraction, factor: float = 1.0) -> float:
    """factor * sqrt(square) for an exact square >= 0 of any size and a
    factor >= 1 of float size.  A root below float range rounds to 0.0,
    one above it is a `UsageError`.  With factor 1 and float(square)
    normal, this is math.sqrt(float(square)) bit for bit: scaling by a
    power of 4 commutes with rounding and with the square root."""
    k = (square.numerator.bit_length() - square.denominator.bit_length()) // 2
    mantissa = float(square * Fraction(4) ** -k)  # in [1/2, 4)
    try:
        return math.ldexp(math.sqrt(mantissa) * factor, k)
    except OverflowError:
        raise UsageError("norm exceeds the float range") from None


@dataclass(frozen=True)
class Coeff:
    """An exact complex rational re + im*i."""

    re: Fraction
    im: Fraction = _ZERO

    @classmethod
    def of(cls, value) -> "Coeff":
        if isinstance(value, Coeff):
            return value
        return cls(Fraction(value))

    def __add__(self, other):
        if self.im or other.im:
            return Coeff(self.re + other.re, self.im + other.im)
        return Coeff(self.re + other.re)

    def __sub__(self, other):
        if self.im or other.im:
            return Coeff(self.re - other.re, self.im - other.im)
        return Coeff(self.re - other.re)

    def __neg__(self):
        return Coeff(-self.re, -self.im)

    def __mul__(self, other):
        other = Coeff.of(other)
        return Coeff(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def abs_sq(self) -> Fraction:
        if self.im:
            return self.re * self.re + self.im * self.im
        return self.re * self.re

    def modulus(self) -> float:
        return math.sqrt(float(self.abs_sq()))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


COEFF_ZERO = Coeff(_ZERO)
COEFF_ONE = Coeff(Fraction(1))


class GroupRingVector:
    """A formal sum of group elements with Coeff coefficients; zero
    coefficients are never stored."""

    __slots__ = ("model", "terms")

    def __init__(self, model: GroupModel, terms=None):
        self.model = model
        self.terms = {}
        if terms:
            for g, c in terms.items():
                c = Coeff.of(c)
                if not c.is_zero():
                    model._check(g)
                    self.terms[g] = c

    @classmethod
    def zero(cls, model) -> "GroupRingVector":
        return cls(model)

    @classmethod
    def from_terms(cls, model, terms: dict) -> "GroupRingVector":
        """The vector over `terms` (no zero coefficients), without a copy."""
        v = cls(model)
        v.terms = terms
        return v

    @classmethod
    def delta(cls, g: GroupElement, coeff=COEFF_ONE) -> "GroupRingVector":
        return cls(g.model, {g: Coeff.of(coeff)})

    def _check_model(self, other):
        if self.model.name != other.model.name:
            raise ModelMismatchError(
                f"vectors over {self.model.name} and {other.model.name}"
            )

    def coefficient(self, g: GroupElement) -> Coeff:
        return self.terms.get(g, COEFF_ZERO)

    def support(self):
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingVector)
            and self.model.name == other.model.name
            and self.terms == other.terms
        )

    def __iadd__(self, other):
        """Add `other` in place, dropping terms that cancel."""
        self._check_model(other)
        terms = self.terms
        for g, c in other.terms.items():
            old = terms.get(g)
            s = c if old is None else old + c
            if s.is_zero():
                terms.pop(g, None)
            else:
                terms[g] = s
        return self

    def __add__(self, other):
        v = self.from_terms(self.model, dict(self.terms))
        v += other
        return v

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.from_terms(self.model, {g: -c for g, c in self.terms.items()})

    def scale(self, coeff) -> "GroupRingVector":
        coeff = Coeff.of(coeff)
        if coeff.is_zero():
            return GroupRingVector.zero(self.model)
        return self.from_terms(self.model, {g: c * coeff for g, c in self.terms.items()})

    def mul_elem_right(self, g: GroupElement) -> "GroupRingVector":
        terms = {self.model.multiply(h, g): c for h, c in self.terms.items()}
        return self.from_terms(self.model, terms)

    def mul_elem_left(self, g: GroupElement) -> "GroupRingVector":
        terms = {self.model.multiply(g, h): c for h, c in self.terms.items()}
        return self.from_terms(self.model, terms)

    def __mul__(self, other) -> "GroupRingVector":
        """Convolution product."""
        self._check_model(other)
        acc = {}
        for g, cg in self.terms.items():
            for h, ch in other.terms.items():
                k = self.model.multiply(g, h)
                s = acc.get(k, COEFF_ZERO) + cg * ch
                if s.is_zero():
                    acc.pop(k, None)
                else:
                    acc[k] = s
        return self.from_terms(self.model, acc)

    # -- norms --------------------------------------------------------------

    def lp_norm(self, p: float) -> float:
        if not p >= 1:
            raise UsageError(f"lp_norm needs p >= 1, got {p}")
        if p == math.inf:
            return self.sup_norm()
        squares = [c.abs_sq() for c in self.terms.values()]
        half = p / 2.0
        try:
            floats = [float(s) for s in squares]
            low = min(floats, default=1.0)
            if low >= _TINY and low ** half >= _TINY:
                # exactly rounded, so independent of the (hash-dependent)
                # term order
                return math.fsum(f ** half for f in floats) ** (1.0 / p)
        except OverflowError:
            pass
        # a square or its power left float range: scale by the largest
        # square, so every power lies in [0, 1] and the largest is 1
        top = max(squares)
        total = math.fsum(float(s / top) ** half for s in squares)
        return _sqrt(top, total ** (1.0 / p))

    def lq_pow_exact(self, q: int) -> Fraction:
        """Exact sum of |coefficient|^q; needs integral q, and real
        coefficients when q is odd."""
        if q < 1:
            raise UsageError(f"lq_pow_exact needs q >= 1, got {q}")
        total = _ZERO
        for c in self.terms.values():
            if q % 2 == 0:
                total += c.abs_sq() ** (q // 2)
            else:
                if c.im != 0:
                    raise UsageError("odd-q exact norm needs real coefficients")
                total += abs(c.re) ** q
        return total

    def sup_norm(self) -> float:
        if not self.terms:
            return 0.0
        return _sqrt(max(c.abs_sq() for c in self.terms.values()))

    # -- wire format --------------------------------------------------------

    def to_json(self) -> list:
        return [
            [g.encode(), str(c.re), str(c.im)]
            for g, c in sorted(self.terms.items(), key=lambda kv: kv[0].encode())
        ]

    @classmethod
    def from_json(cls, model: GroupModel, data) -> "GroupRingVector":
        terms = {}
        for enc, re_s, im_s in data:
            terms[model.decode(enc)] = Coeff(Fraction(re_s), Fraction(im_s))
        return cls(model, terms)

    def __repr__(self):
        inner = " + ".join(f"({c})*{g.encode()}" for g, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].encode()))
        return inner or "0"
