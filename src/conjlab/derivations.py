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
from .ring import _ZERO, GroupRingVector, exact_str, float_norm, left_sum

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
    def _terms(self) -> tuple:
        """The (truncated) support as (payload, phi, -phi) triples, sorted by
        encoding; built once, from payloads only."""
        supp = [g.payload for g in self.table]
        if self.closed_form is not None:
            supp += CLOSED_FORMS[self.closed_form]["support"](self.trunc_k)
        supp.sort(key=self.model.encode_payload)
        values = [(p, self._value(p)) for p in supp]
        return tuple([(p, v, -v) for p, v in values if v])

    @cached_property
    def _scaled_terms(self) -> tuple:
        """(D, triples): D the lcm of the support's denominators, and `_terms`
        with each value multiplied by D, as (payload, D phi, -D phi) ints."""
        den = math.lcm(*[v.denominator for _, v, _ in self._terms])
        scaled = [(s, v.numerator * (den // v.denominator)) for s, v, _ in self._terms]
        return den, tuple([(s, n, -n) for s, n in scaled])

    def support(self) -> tuple:
        """The (truncated) support sorted by encoding, built once and shared."""
        if self._support is None:
            self._support = tuple([self.model.element(p) for p, _, _ in self._terms])
        return self._support

    def add_derivation(self, gp, acc: dict, scaled: bool = False) -> None:
        """Add d(g) = sum of phi(s)(s g - g s) over the support, g of payload
        `gp`, into `acc` ({payload: Fraction}), dropping terms that cancel.
        With `scaled`, add D d(g) in ints instead, D = `_scaled_terms[0]`:
        integer adds need no gcd, so callers that read few coefficients
        divide by D only there."""
        mul = self.model.mul_payload
        get = acc.get
        for s, v, nv in self._scaled_terms[1] if scaled else self._terms:
            for u, c in ((mul(s, gp), v), (mul(gp, s), nv)):
                old = get(u)
                new = c if old is None else old + c
                if new:
                    acc[u] = new
                else:
                    del acc[u]

    def lq_pow(self, q: int) -> Fraction:
        return sum((abs(v) ** q for _, v, _ in self._terms), _ZERO)

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
        try:
            table = {model.decode(enc): Fraction(v) for enc, v in rows}
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
    """Either an inner derivation [x, -] or the derivation induced by a
    potential; the two agree whenever the potential is the coefficient
    table of x."""

    def __init__(self, model, potential=None, inner_vector=None):
        if (potential is None) == (inner_vector is None):
            raise UsageError("exactly one of potential / inner_vector required")
        self.model = model
        self.potential_obj = potential
        self.inner_vector = inner_vector

    @classmethod
    def inner(cls, x: GroupRingVector) -> "Derivation":
        return cls(x.model, inner_vector=x)

    @classmethod
    def from_potential(cls, phi: Potential) -> "Derivation":
        return cls(phi.model, potential=phi)

    def apply(self, g: GroupElement) -> GroupRingVector:
        """d(g); exact over the (truncated) support."""
        self.model._check(g)
        if self.inner_vector is not None:
            xg = self.inner_vector.mul_elem_right(g)
            gx = self.inner_vector.mul_elem_left(g)
            return xg - gx
        acc = {}
        self.potential_obj.add_derivation(g.payload, acc)
        return GroupRingVector.from_terms(self.model, acc)

    def apply_linear(self, a: GroupRingVector) -> GroupRingVector:
        out = GroupRingVector(self.model)
        for p, c in a.terms.items():
            out += self.apply(self.model.element(p)).scale(c)
        return out


def inner_derivation_apply(x: GroupRingVector, a: GroupRingVector) -> GroupRingVector:
    """D_x(a) = x a - a x, exactly."""
    return x * a - a * x


def character_from_derivation(d: Derivation, mor: Morphism) -> Fraction:
    """chi(h, g) = delta_h(d(g))."""
    return d.apply(mor.v).coefficient(mor.u)


def leibniz_residual(d: Derivation, g: GroupElement, h: GroupElement):
    """The vector d(gh) - d(g) h - g d(h), exactly; zero for every
    derivation."""
    return d.apply(g * h) - d.apply(g).mul_elem_right(h) - d.apply(h).mul_elem_left(g)


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

    For potential-induced derivations, ||d(g)||_p depends only on the inner
    automorphism x -> g x g^-1, which the images of the generators fix: those
    key the memo, and the support is conjugated once per key.
    """
    if not p >= 1:
        raise UsageError(f"g_boundedness_probe needs p >= 1, got {p}")
    model._check(d.model.identity())
    ball = model.cayley_ball(radius, node_budget)
    phi = d.potential_obj
    if phi is not None:
        terms = phi._terms
        values = {s: v for s, v, _ in terms}
        powers = [_float_pow(v, p) for _, v, _ in terms]
        gens = [x for _, x, _ in model.gen_triples]
    mul, inv = model.mul_payload, model.inv_payload
    memo = {}
    best = -1.0
    argmax = None
    for g in sorted(ball, key=lambda e: (ball[e], e.encode())):
        if phi is not None:
            gp = g.payload
            gi = inv(gp)
            key = tuple([mul(gp, mul(x, gi)) for x in gens])
            norm = memo.get(key)
            if norm is None:
                # d(g) has phi(g t g^-1) - phi(t) at g t for each t in the
                # support, and phi(s) at s g for each support element s that
                # is no image g t g^-1; powers are added in this order
                coeffs, pows, images = [], [], set()
                for (t, v, nv), pw in zip(terms, powers):
                    s = mul(gp, mul(t, gi))
                    images.add(s)
                    w = values.get(s)
                    c = nv if w is None else w - v
                    coeffs.append(c)
                    pows.append(pw if w is None else _float_pow(c, p))
                for (s, v, _), pw in zip(terms, powers):
                    if s not in images:
                        coeffs.append(v)
                        pows.append(pw)
                norm = memo[key] = float_norm(coeffs, p, lambda: left_sum(pows))
        else:
            norm = d.apply(g).lp_norm(p)
        if norm > best:
            best = norm
            argmax = g
    return best, argmax


def _float_pow(c: Fraction, p: float) -> float:
    """float(|c|) ** p, or inf beyond the float range (so a sum of such
    powers sends `float_norm` to its fallback)."""
    try:
        return float(abs(c)) ** p
    except OverflowError:
        return math.inf


def stabilisation_probe(phi: Potential, ball, radii):
    """For each radius r: sup |phi| over ball vertices at distance > r
    (the stabilised-at-0 convention)."""
    out = []
    for r in radii:
        sup = Fraction(0)
        for v, dv in ball.dist.items():
            if dv > r:
                sup = max(sup, abs(phi.value(v)))
        out.append((r, sup))
    return out


def edge_jump_probe(phi: Potential, ball, eps: Fraction):
    """Count adjacent vertex pairs in the ball whose potential gap is
    >= eps, with witnesses."""
    eps = Fraction(eps)
    if eps <= 0:
        raise UsageError("edge_jump_probe needs eps > 0")
    seen_pairs = set()
    witnesses = []
    for e in ball.edges:
        if e.is_loop():
            continue
        pair = tuple(sorted((e.src, e.dst)))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        gap = abs(phi.value(e.src) - phi.value(e.dst))
        if gap >= eps:
            witnesses.append((pair[0], pair[1], gap))
    witnesses.sort(key=lambda w: (w[0].encode(), w[1].encode()))
    return len(witnesses), witnesses
