"""Finitely supported group-ring vectors with exact rational coefficients,
stored as {payload: Fraction}, and the norms on them.

Arithmetic stays exact and runs on payloads; group elements appear only at
the API boundary.  Only the final p-norm values leave exact land (float),
with `lq_pow_exact` when the q-th power of the norm is itself rational.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
from fractions import Fraction
from functools import reduce

from .errors import ModelMismatchError, UsageError
from .groups import GroupElement, GroupModel

_ZERO = Fraction(0)
_ratio = operator.attrgetter("numerator", "denominator")
_TINY = sys.float_info.min  # the smallest normal float


def _sqrt(square: Fraction, factor: float = 1.0) -> float:
    """factor * sqrt(square) for an exact square >= 0 of any size and a
    factor >= 1 of float size.  A root below float range rounds to 0.0,
    one above it is a `UsageError`.  With factor 1 and float(square)
    normal, this is math.sqrt(float(square)) bit for bit: scaling by a
    power of 4 commutes with rounding and with the square root."""
    n, d = square.numerator, square.denominator
    k = (n.bit_length() - d.bit_length()) // 2
    # square / 4^k in [1/2, 4), by shifts and one correctly rounded division:
    # no gcd on the (possibly huge) operands
    mantissa = n / (d << 2 * k) if k >= 0 else (n << -2 * k) / d
    try:
        return math.ldexp(math.sqrt(mantissa) * factor, k)
    except OverflowError:
        raise UsageError("norm exceeds the float range") from None


def add_terms(acc: dict, terms) -> None:
    """Add each (payload, coefficient) of `terms` into `acc` in place,
    dropping keys that cancel to 0; no coefficient is 0."""
    get = acc.get
    for u, c in terms:
        old = get(u)
        new = c if old is None else old + c
        if new:
            acc[u] = new
        else:
            del acc[u]


def left_sum(floats) -> float:
    """The floats added one by one, left to right.  `sum` compensates its
    rounding from Python 3.12 on; this gives the same bits on every version."""
    return reduce(operator.add, floats, 0.0)


def float_norm(values, p: float, power_sum=None) -> float:
    """The p-norm (p >= 1) of the exact rationals `values` as a float: the p-th
    root of `power_sum()` (default: the `left_sum` of float(|c|) ** p) while
    that sum is a normal float, float(max |c|) for p = inf.  Out of float range,
    each square is divided by the largest, so every power lies in [0, 1]; `_sqrt`
    scales back.  A value whose bit lengths show |c| > 2^1025 is refused first,
    without a square: the norm is at least |c|, which no float holds."""
    try:
        if p == math.inf:
            return float(max(map(abs, values), default=0))
        total = power_sum() if power_sum else left_sum(float(abs(c)) ** p for c in values)
        if _TINY <= total < math.inf:
            return total ** (1.0 / p)
    except OverflowError:
        pass
    # |n / d| > 2^(n.bit_length() - 1 - d.bit_length())
    if any(n.bit_length() - d.bit_length() > 1025 for n, d in map(_ratio, values)):
        raise UsageError("norm exceeds the float range")
    squares = [c * c for c in values if c]
    top = max(squares, default=_ZERO)
    total = math.fsum(float(s / top) ** (p / 2.0) for s in squares)
    return _sqrt(top, total ** (1.0 / p))


def exact_str(c: Fraction) -> str:
    """str(c) of an exact rational about to be printed, or a `UsageError`
    where it has more digits than Python prints."""
    try:
        return str(c)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise UsageError("a rational value is too large to print") from None


def exact_pow_fits(values, q: int) -> bool:
    """Whether sum |c|^q (q >= 1 an integer) over the exact rationals `values`
    surely has at most twice as many digits as Python prints, judged before
    any power is taken: its denominator divides L^q, L the lcm of the
    denominators, and its numerator is at most n * (max |c| * L)^q."""
    values = [abs(c) for c in values if c]
    lcm = math.lcm(*{c.denominator for c in values})
    top = int(max(values, default=0) * lcm)  # an integer: L is a common multiple
    digits = q * math.log10(max(top, lcm)) + math.log10(len(values) + 1)
    return digits < 2 * (sys.get_int_max_str_digits() or math.inf)  # 0: no limit


class GroupRingVector:
    """A formal sum of group elements with rational coefficients, built from
    {GroupElement: rational} and stored by payload; zero coefficients are
    never stored."""

    __slots__ = ("model", "terms")

    def __init__(self, model: GroupModel, terms=None):
        self.model = model
        self.terms = {}
        for g, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                model._check(g)
                self.terms[g.payload] = c

    @classmethod
    def from_terms(cls, model, terms: dict) -> "GroupRingVector":
        """The vector over `terms` ({payload: Fraction}, no zero
        coefficients), without a copy."""
        v = cls(model)
        v.terms = terms
        return v

    def _check_model(self, other):
        if self.model.name != other.model.name:
            raise ModelMismatchError(
                f"vectors over {self.model.name} and {other.model.name}"
            )

    def coefficient(self, g: GroupElement) -> Fraction:
        self.model._check(g)
        return self.terms.get(g.payload, _ZERO)

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
        add_terms(self.terms, other.terms.items())
        return self

    def __add__(self, other):
        v = self.from_terms(self.model, dict(self.terms))
        v += other
        return v

    def mul_elem_right(self, g: GroupElement) -> "GroupRingVector":
        self.model._check(g)
        keys = self.model.mul_all(self.terms, g.payload)
        return self.from_terms(self.model, dict(zip(keys, self.terms.values())))

    def mul_elem_left(self, g: GroupElement) -> "GroupRingVector":
        self.model._check(g)
        keys = self.model.mul_all(self.terms, g.payload, left=True)
        return self.from_terms(self.model, dict(zip(keys, self.terms.values())))

    def __mul__(self, other) -> "GroupRingVector":
        """Convolution product."""
        self._check_model(other)
        acc = {}
        for g, cg in self.terms.items():
            add_terms(acc, zip(self.model.mul_all(other.terms, g, left=True),
                               [cg * ch for ch in other.terms.values()]))
        return self.from_terms(self.model, acc)

    # -- norms --------------------------------------------------------------

    def lp_norm(self, p: float) -> float:
        if not p >= 1:
            raise UsageError(f"lp_norm needs p >= 1, got {p}")
        if p == math.inf:
            return self.sup_norm()
        half = p / 2.0

        def power_sum():
            # n^2 / d^2 is float(c * c) without the product's gcds
            floats = [n * n / (d * d) for n, d in map(_ratio, self.terms.values())]
            low = min(floats, default=0.0)
            # a square or power below the normal range has lost digits
            if low >= _TINY and low ** half >= _TINY:
                # exactly rounded, so independent of the (hash-dependent)
                # term order
                return math.fsum(f ** half for f in floats)
            return 0.0

        return float_norm(self.terms.values(), p, power_sum)

    def lq_pow_exact(self, q: int) -> Fraction:
        """Exact sum of |coefficient|^q for integral q >= 1, if it can be printed."""
        if q < 1:
            raise UsageError(f"lq_pow_exact needs q >= 1, got {q}")
        if exact_pow_fits(self.terms.values(), q):
            total = sum((abs(c) ** q for c in self.terms.values()), _ZERO)
            with contextlib.suppress(ValueError):
                str(total)  # a ValueError beyond sys.get_int_max_str_digits()
                return total
        raise UsageError(f"q = {q} is too large to print the exact q-th powers")

    def sup_norm(self) -> float:
        return _sqrt(max((c * c for c in self.terms.values()), default=_ZERO))

    # -- wire format --------------------------------------------------------

    def to_json(self) -> list:
        """[encoding, re, im] rows sorted by encoding; im is always "0"."""
        encode = self.model.encode_payload
        return sorted([encode(p), exact_str(c), "0"] for p, c in self.terms.items())

    def __repr__(self):
        return " + ".join(f"({c})*{enc}" for enc, c, _ in self.to_json()) or "0"
