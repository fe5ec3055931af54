"""Potentials, groupoid morphisms/characters, and derivations.

A potential is a rational-valued function on the group given by a finite
table plus an optional named closed-form rule.  Closed-form supports are
truncated at a cutoff index K; evaluation is then the exact derivation of
the truncated potential, so algebraic identities (Leibniz, character
additivity) hold exactly, while `tail_bound` quantifies what the cutoff
discards in q-norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import UsageError
from .groups import DEFAULT_NODE_BUDGET, GroupElement, GroupModel, get_model
from .ring import _ZERO, GroupRingVector, add_terms, exact_str, float_norm, left_sum

DEFAULT_TRUNCATION = 10**4


# ---------------------------------------------------------------------------
# Closed-form potential rules: value(payload, cutoff K) and the payloads of
# the support, both truncated at K

def _harmonic_value(payload, trunc_k) -> Fraction:
    # supported on Ap*Ax^-k = Ax^-k Ap A1^-k, triple (1, -k, -k), value 1/k
    a, b, c = payload
    if a == 1 and b == c and -trunc_k <= b <= -1:
        return Fraction(1, -b)
    return _ZERO


def _harmonic_support(trunc_k):
    return [(1, -k, -k) for k in range(1, trunc_k + 1)]


def _harmonic_tail_pow(trunc_k: int, q: int) -> Fraction:
    # sum_{k>K} (1/k)^q <= 1/((q-1) K^(q-1)); divergent for q = 1
    if q <= 1:
        raise UsageError("harmonic closed form has no finite l1 tail bound")
    return Fraction(1, (q - 1) * trunc_k ** (q - 1))


CLOSED_FORMS = {
    "appendix_harmonic": {
        "model": "h3",
        "value": _harmonic_value,
        "support": _harmonic_support,
        "tail_pow": _harmonic_tail_pow,
    },
}


class Potential:
    """phi: G -> Q as a finite table plus optional closed-form rule.

    Values are read from one payload-keyed exact table: the explicit
    entries, plus each closed-form value (truncated at `trunc_k`) from its
    first lookup on, so loading never enumerates the closed-form support.
    """

    def __init__(self, model: GroupModel, table=None, closed_form=None,
                 trunc_k: int = DEFAULT_TRUNCATION):
        self.model = model
        self.table = {}
        for g, v in (table or {}).items():
            model._check(g)
            v = Fraction(v)
            if v != 0:
                self.table[g] = v
        self._rule = lambda p, trunc_k: _ZERO
        if closed_form is not None:
            rule = CLOSED_FORMS.get(closed_form) if isinstance(closed_form, str) else None
            if rule is None:
                raise UsageError(f"unknown closed form {closed_form!r}")
            if rule["model"] != model.name:
                raise UsageError(
                    f"closed form {closed_form!r} is defined on model "
                    f"{rule['model']}, not {model.name}"
                )
            self._rule = rule["value"]
            for g in self.table:
                if self._rule(g.payload, math.inf) != 0:
                    raise UsageError(
                        "table and closed-form supports must be disjoint"
                    )
        if isinstance(trunc_k, bool) or not isinstance(trunc_k, int) or trunc_k < 1:
            raise UsageError("truncation cutoff must be an integer >= 1")
        self.closed_form = closed_form
        self.trunc_k = trunc_k
        self._values = {g.payload: v for g, v in self.table.items()}
        self._support = None

    def is_exact(self) -> bool:
        return self.closed_form is None

    def value(self, g: GroupElement) -> Fraction:
        """phi(g) under the truncation policy (0 beyond the cutoff)."""
        self.model._check(g)
        return self._value(g.payload)

    def _value(self, p) -> Fraction:
        v = self._values.get(p)
        if v is None:
            v = self._rule(p, self.trunc_k)
            if v:
                self._values[p] = v
        return v

    @cached_property
    def _columns(self) -> tuple:
        """The (truncated) support as parallel columns (payloads, phi, -phi),
        sorted by encoding and without zero values; built once, from
        payloads only."""
        supp = [g.payload for g in self.table]
        if self.closed_form is not None:
            supp += CLOSED_FORMS[self.closed_form]["support"](self.trunc_k)
        supp.sort(key=self.model.encode_payload)
        values = [(p, v) for p, v in zip(supp, map(self._value, supp)) if v]
        payloads = tuple([p for p, _ in values])
        return payloads, tuple([v for _, v in values]), tuple([-v for _, v in values])

    @cached_property
    def _scaled_columns(self) -> tuple:
        """(D, (payloads, D phi, -D phi)): D the lcm of the support's
        denominators, and `_columns` with each value multiplied by D, as ints."""
        payloads, values, _ = self._columns
        den = math.lcm(*[v.denominator for v in values])
        scaled = [v.numerator * (den // v.denominator) for v in values]
        return den, (payloads, tuple(scaled), tuple([-n for n in scaled]))

    def support(self) -> tuple:
        """The (truncated) support sorted by encoding, built once and shared."""
        if self._support is None:
            self._support = tuple(map(self.model.element, self._columns[0]))
        return self._support

    def add_derivation(self, gp, acc: dict, scaled: bool = False) -> None:
        """Add d(g) = sum of phi(s)(s g - g s) over the support, g of payload
        `gp`, into `acc` ({payload: Fraction}), dropping terms that cancel.
        With `scaled`, add D d(g) in ints instead, D = `_scaled_columns[0]`:
        integer adds need no gcd, so callers divide by D once at the end."""
        payloads, pos, neg = self._scaled_columns[1] if scaled else self._columns
        mul_all = self.model.mul_all
        add_terms(acc, zip(mul_all(payloads, gp), pos))
        add_terms(acc, zip(mul_all(payloads, gp, left=True), neg))

    def lq_pow(self, q: int) -> Fraction:
        return sum((abs(v) ** q for v in self._columns[1]), _ZERO)

    def tail_bound_pow(self, q: int) -> Fraction:
        """Upper bound on the q-th-power mass the truncation discards."""
        if self.closed_form is None:
            return Fraction(0)
        return CLOSED_FORMS[self.closed_form]["tail_pow"](self.trunc_k, q)

    # -- wire format --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "model": self.model.name,
            "table": [
                [g.encode(), exact_str(v)]
                for g, v in sorted(self.table.items(), key=lambda kv: kv[0].encode())
            ],
            "closed_form": self.closed_form,
            "truncation": self.trunc_k,
        }

    @classmethod
    def from_json(cls, data) -> "Potential":
        rows = data.get("table", []) if isinstance(data, dict) else None
        if not (isinstance(rows, list) and isinstance(data.get("model"), str) and all(
                isinstance(r, list) and list(map(type, r)) == [str, str] for r in rows)):
            raise UsageError('expected {"model": "...", "table": [["element", "rational"], ...]}')
        model = get_model(data["model"])
        table = {}
        try:
            for enc, v in rows:
                g = model.decode(enc)
                if g in table:  # two spellings of one element count as one
                    raise UsageError(f"{enc!r} names {g.encode()} a second time")
                table[g] = Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad table entry: {exc}") from exc
        return cls(model, table, closed_form=data.get("closed_form"),
                   trunc_k=data.get("truncation", DEFAULT_TRUNCATION))

    @classmethod
    def load(cls, path) -> "Potential":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Groupoid morphisms and characters


@dataclass(frozen=True)
class Morphism:
    """The pair (u, v): a morphism from v^-1 u to u v^-1.

    Stored exactly as the (h, g) pair the character formula chi(h, g)
    consumes, with u = h and v = g.
    """

    u: GroupElement
    v: GroupElement

    def source(self) -> GroupElement:
        return self.v.inverse() * self.u

    def target(self) -> GroupElement:
        return self.u * self.v.inverse()

    def is_loop(self) -> bool:
        return self.u * self.v == self.v * self.u


def identity_morphism(obj: GroupElement) -> Morphism:
    """The identity loop at an object: (g, e)."""
    return Morphism(obj, obj.model.identity())


def compose_morphisms(psi: Morphism, phi: Morphism) -> Morphism:
    """(u2, v2) o (u1, v1) = (v2 u1, v2 v1), defined when the target of phi
    equals the source of psi."""
    if phi.target() != psi.source():
        raise UsageError("morphisms are not composable")
    return Morphism(psi.v * phi.u, psi.v * phi.v)


def character_from_potential(phi: Potential, mor: Morphism) -> Fraction:
    """chi(h, g) = phi(h g^-1) - phi(g^-1 h)."""
    h, g = mor.u, mor.v
    ginv = g.inverse()
    return phi.value(h * ginv) - phi.value(ginv * h)


# ---------------------------------------------------------------------------
# Derivations


class Derivation:
    """The derivation d_phi induced by a potential phi:
    d(g) = sum of phi(s)(s g - g s) over the support of phi.  The inner
    derivation [x, -] is d_phi for phi the coefficient table of x."""

    def __init__(self, potential: Potential):
        self.model = potential.model
        self.potential_obj = potential

    def apply(self, g: GroupElement) -> GroupRingVector:
        """d(g); exact over the (truncated) support."""
        self.model._check(g)
        acc = {}
        self.potential_obj.add_derivation(g.payload, acc)
        return GroupRingVector.from_terms(self.model, acc)


def character_from_derivation(d: Derivation, mor: Morphism) -> Fraction:
    """chi(h, g) = delta_h(d(g))."""
    return d.apply(mor.v).coefficient(mor.u)


def leibniz_residual(d: Derivation, g: GroupElement, h: GroupElement):
    """The vector d(gh) - d(g) h - g d(h), exactly; zero for every
    derivation."""
    phi = d.potential_obj
    # termwise into one dict of D phi ints: D d(gh), then -D phi(s) at
    # (s g) h and g (s h), +D phi(s) at (g s) h and g (h s)
    model = d.model
    model._check(g, h)
    gp, hp = g.payload, h.payload
    den, (payloads, pos, neg) = phi._scaled_columns
    mul_all = model.mul_all
    acc = {}
    phi.add_derivation(model.mul_payload(gp, hp), acc, scaled=True)
    for keys, coeffs in ((mul_all(mul_all(payloads, gp), hp), neg),
                         (mul_all(mul_all(payloads, gp, left=True), hp), pos),
                         (mul_all(mul_all(payloads, hp), gp, left=True), neg),
                         (mul_all(mul_all(payloads, hp, left=True), gp, left=True), pos)):
        add_terms(acc, zip(keys, coeffs))
    return GroupRingVector.from_terms(model, {u: Fraction(n, den) for u, n in acc.items()})


def quasi_inner_check(source, loops):
    """Check that the character vanishes on the given loop morphisms.

    `source` is a Derivation, a Potential, or a bare character function
    morphism -> value; returns (ok, witness) where witness is the first
    violating (morphism, value), if any.
    """
    for mor in loops:
        if not mor.is_loop():
            raise UsageError(f"morphism {mor} is not a loop")
    for mor in loops:
        if isinstance(source, Potential):
            val = character_from_potential(source, mor)
        elif isinstance(source, Derivation):
            val = character_from_derivation(source, mor)
        else:
            val = source(mor)
        if val != 0:
            return False, (mor, val)
    return True, None


# ---------------------------------------------------------------------------
# Probes


def g_boundedness_probe(
    d: Derivation,
    model: GroupModel,
    radius: int,
    p: float,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """Max of ||d(g)||_p over the Cayley ball, with argmax.

    ||d(g)||_p depends only on the inner automorphism x -> g x g^-1, which
    the images of the generators fix: those key the memo, and the support
    is conjugated once per key.
    """
    if not p >= 1:
        raise UsageError(f"g_boundedness_probe needs p >= 1, got {p}")
    model._check(d.model.identity())
    ball = model.cayley_ball(radius, node_budget)
    # d(g) has phi(g t g^-1) - phi(t) at g t for each t in the support,
    # then phi(s) at s g for each s that is no image g t g^-1, powers
    # added in this order.  Off the support an image leaves -phi(t);
    # where it lands on s, that difference replaces -phi(t) and a 0
    # replaces phi(s), which adds nothing to a norm.
    payloads, values, negs = d.potential_obj._columns
    n = len(payloads)
    index = {s: i for i, s in enumerate(payloads)}
    powers = [_float_pow(v, p) for v in values]
    base_coeffs, base_pows = list(negs + values), powers + powers
    gens = [x for _, x, _ in model.gen_triples]
    mul_all, inv = model.mul_all, model.inv_payload
    memo = {}
    best = -1.0
    argmax = None
    for g in sorted(ball, key=lambda e: (ball[e], e.encode())):
        gp = g.payload
        gi = inv(gp)
        key = tuple(mul_all(mul_all(gens, gi), gp, left=True))
        norm = memo.get(key)
        if norm is None:
            images = mul_all(mul_all(payloads, gi), gp, left=True)
            coeffs, pows = base_coeffs.copy(), base_pows.copy()
            for i, j in enumerate(map(index.get, images)):
                if j is None:
                    continue
                if i == j:  # t commutes with g
                    coeffs[i], pows[i] = _ZERO, 0.0
                else:
                    c = coeffs[i] = values[j] - values[i]
                    pows[i] = _float_pow(c, p)
                coeffs[n + j], pows[n + j] = _ZERO, 0.0
            norm = memo[key] = float_norm(coeffs, p, lambda: left_sum(pows))
        if norm > best:
            best = norm
            argmax = g
    return best, argmax


def _float_pow(c: Fraction, p: float) -> float:
    """|float(c)| ** p, or inf beyond the float range (so a sum of such
    powers sends `float_norm` to its fallback)."""
    try:
        return abs(float(c)) ** p
    except OverflowError:
        return math.inf


def stabilisation_probe(phi: Potential, ball, radii):
    """For each radius r: sup |phi| over ball vertices at distance > r
    (the stabilised-at-0 convention), read off the ball's payloads."""
    phi.model._check(ball.base)
    out = []
    for r in radii:
        sup = Fraction(0)
        for p, dp in ball.depths.items():
            if dp > r:
                sup = max(sup, abs(phi._value(p)))
        out.append((r, sup))
    return out

