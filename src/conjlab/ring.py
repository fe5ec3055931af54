"""Finitely supported group-ring vectors with exact Gaussian-rational
coefficients, and the norms on them.

Arithmetic stays exact; only the final p-norm values leave exact land
(float), with `lq_pow_exact` available when the q-th power of the norm is
itself rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelMismatchError, UsageError
from .groups import GroupElement, GroupModel

_ZERO = Fraction(0)


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
        return Coeff(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Coeff(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Coeff(-self.re, -self.im)

    def __mul__(self, other):
        other = Coeff.of(other)
        return Coeff(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

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

    def __add__(self, other):
        self._check_model(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            s = out.get(g, COEFF_ZERO) + c
            if s.is_zero():
                out.pop(g, None)
            else:
                out[g] = s
        v = GroupRingVector(self.model)
        v.terms = out
        return v

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        v = GroupRingVector(self.model)
        v.terms = {g: -c for g, c in self.terms.items()}
        return v

    def scale(self, coeff) -> "GroupRingVector":
        coeff = Coeff.of(coeff)
        if coeff.is_zero():
            return GroupRingVector.zero(self.model)
        v = GroupRingVector(self.model)
        v.terms = {g: c * coeff for g, c in self.terms.items()}
        return v

    def mul_elem_right(self, g: GroupElement) -> "GroupRingVector":
        v = GroupRingVector(self.model)
        v.terms = {self.model.multiply(h, g): c for h, c in self.terms.items()}
        return v

    def mul_elem_left(self, g: GroupElement) -> "GroupRingVector":
        v = GroupRingVector(self.model)
        v.terms = {self.model.multiply(g, h): c for h, c in self.terms.items()}
        return v

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
        v = GroupRingVector(self.model)
        v.terms = acc
        return v

    # -- norms --------------------------------------------------------------

    def lp_norm(self, p: float) -> float:
        if not p >= 1:
            raise UsageError(f"lp_norm needs p >= 1, got {p}")
        if p == math.inf:
            return self.sup_norm()
        # exactly rounded, so independent of the (hash-dependent) term order
        total = math.fsum(float(c.abs_sq()) ** (p / 2.0) for c in self.terms.values())
        return total ** (1.0 / p)

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

    def l1_norm(self) -> float:
        return self.lp_norm(1)

    def sup_norm(self) -> float:
        if not self.terms:
            return 0.0
        return math.sqrt(float(max(c.abs_sq() for c in self.terms.values())))

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
