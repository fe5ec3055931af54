"""Potentials, their characters, and derivations.

A potential is a rational-valued function on the group given by a finite
table plus an optional named closed-form rule.  Closed-form supports are
truncated at a cutoff index K; evaluation is then the exact derivation of
the truncated potential, so algebraic identities (Leibniz, character
additivity) hold exactly.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat

from .errors import ModelMismatchError, UsageError
from .groups import DEFAULT_NODE_BUDGET, GroupModel, get_model
from .ring import _ZERO, GroupRingVector, add_terms, exact_str, float_norm, left_sum

DEFAULT_TRUNCATION = 10**4


# ---------------------------------------------------------------------------
# The one closed-form rule, "appendix_harmonic" on h3: value(payload, cutoff
# K) and the support, both truncated at K

def _harmonic_value(payload, trunc_k) -> Fraction:
    # supported on Ap*Ax^-k = Ax^-k Ap A1^-k, triple (1, -k, -k), value 1/k
    a, b, c = payload
    if a == 1 and b == c and -trunc_k <= b <= -1:
        return Fraction(1, -b)
    return _ZERO


def _harmonic_support(trunc_k) -> list:
    return [(1, -k, -k) for k in range(1, trunc_k + 1)]


class Potential:
    """phi: G -> Q as a finite table plus optional closed-form rule.

    `table` is the one value table, {payload: Fraction} of the explicit
    nonzero entries; any other value comes from the closed-form rule,
    truncated at `trunc_k`, on each lookup, so loading never enumerates
    the closed-form support.
    """

    def __init__(self, model: GroupModel, table=None, closed_form=None,
                 trunc_k: int = DEFAULT_TRUNCATION):
        self.model = model
        values = {p: Fraction(v) for p, v in (table or {}).items()}
        self.table = {p: v for p, v in values.items() if v}
        self._rule = lambda p, trunc_k: _ZERO
        if closed_form is not None:
            if closed_form != "appendix_harmonic":
                raise UsageError(f"unknown closed form {closed_form!r}")
            if model.name != "h3":
                raise UsageError(
                    f"closed form {closed_form!r} is defined on model h3, not {model.name}"
                )
            self._rule = _harmonic_value
            for p in self.table:
                if self._rule(p, math.inf) != 0:
                    raise UsageError(
                        "table and closed-form supports must be disjoint"
                    )
        if isinstance(trunc_k, bool) or not isinstance(trunc_k, int) or trunc_k < 1:
            raise UsageError("truncation cutoff must be an integer >= 1")
        self.closed_form = closed_form
        self.trunc_k = trunc_k

    def is_exact(self) -> bool:
        return self.closed_form is None

    def value(self, p) -> Fraction:
        """phi at the payload p under the truncation policy (0 beyond the cutoff)."""
        return self.table.get(p) or self._rule(p, self.trunc_k)

    @cached_property
    def _support(self) -> tuple:
        rule = _harmonic_support(self.trunc_k) if self.closed_form is not None else ()
        # the table is disjoint from the rule's support
        return tuple(sorted([*self.table, *rule], key=self.model.encode_payload))

    @cached_property
    def _columns(self) -> tuple:
        """The (truncated) support as parallel columns (payloads, phi),
        sorted by encoding and without zero values; built once, the rule's
        values read at the rule's own support."""
        payloads, table, rule, k = self._support, self.table, self._rule, self.trunc_k
        return payloads, tuple([table.get(p) or rule(p, k) for p in payloads])

    @cached_property
    def _scaled_columns(self) -> tuple:
        """(D, (payloads, D phi)): D the lcm of the support's denominators,
        and `_columns` with each value multiplied by D, as ints."""
        payloads, values = self._columns
        den = math.lcm(*[v.denominator for v in values])
        return den, (payloads, tuple([v.numerator * (den // v.denominator) for v in values]))

    def support(self) -> tuple:
        """The (truncated) support's payloads sorted by encoding, built once
        and with no value read: `_columns[0]`."""
        return self._support

    def add_derivation(self, gp, acc: dict) -> None:
        """Add d(g) = sum of phi(s)(s g - g s) over the support, g of payload
        `gp`, into `acc` ({payload: Fraction}), dropping terms that cancel."""
        payloads, values = self._columns
        mul_all = self.model.mul_all
        add_terms(acc, zip(mul_all(payloads, gp), values))
        add_terms(acc, zip(mul_all(payloads, gp, left=True), map(operator.neg, values)))

    def image(self, gp) -> tuple:
        """d(g) from the hits of g (payload `gp`): its rows (encoding, exact
        value, "0") by encoding, and `hit_column` without 0s.  d(g) is -phi(s_i)
        at g s_i and phi(s_j) at s_j g, but phi(s_j) - phi(s_i) at a hit's g s_i."""
        model, (payloads, values) = self.model, self._columns
        n, hits = len(values), model.conj_hits(payloads)(gp, model.inv_payload(gp))
        coeffs, live = hit_column(values, hits), [True] * (2 * n)  # the terms of d(g)
        for i, j in hits:
            live[i] = live[n + j] = False
        # -phi(s) for g s, then phi(s) for s g: each value a term shows, printed once
        texts = [exact_str(v) if a or b else "" for v, a, b in zip(values, live, live[n:])]
        texts[:0] = [t[1:] if t[:1] == "-" else "-" + t for t in texts]
        for i in [i for i, _ in hits if coeffs[i]]:  # phi(s_j) - phi(s_i), at g s_i
            live[i], texts[i] = True, exact_str(coeffs[i])
        keys = [*model.mul_all(payloads, gp, left=True), *model.mul_all(payloads, gp)]
        return sorted(zip(map(model.encode_payload, compress(keys, live)), compress(texts, live),
                          repeat("0"))), list(compress(coeffs, live))

    # -- wire format --------------------------------------------------------

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
                p = model.decode_payload(enc)
                if p in table:  # two spellings of one element count as one
                    raise UsageError(f"{enc!r} names {model.encode_payload(p)} a second time")
                table[p] = _rational(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad table entry: {exc}") from exc
        return cls(model, table, closed_form=data.get("closed_form"),
                   trunc_k=data.get("truncation", DEFAULT_TRUNCATION))

    @classmethod
    def load(cls, path) -> "Potential":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _rational(text: str) -> Fraction:
    """Fraction(text), with an exponent whose magnitude passes Python's int/str
    digit limit refused first: Fraction would build that power of ten."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    # Fraction's exponent syntax; the pattern is compiled (0.15 ms) only for an e
    exp = limit and "e" in text.lower() and re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*$", text)
    if exp and abs(int(exp[1])) > limit:
        raise ValueError(f"exponent {exp[1]} exceeds the limit ({limit} digits)")
    return Fraction(text)


# ---------------------------------------------------------------------------
# Derivations


class Derivation:
    """The derivation d_phi induced by a potential phi:
    d(g) = sum of phi(s)(s g - g s) over the support of phi.  The inner
    derivation [x, -] is d_phi for phi the coefficient table of x."""

    def __init__(self, potential: Potential):
        self.model = potential.model
        self.potential_obj = potential

    def apply(self, gp) -> GroupRingVector:
        """d(g), g of payload `gp`; exact over the (truncated) support."""
        acc = {}
        self.potential_obj.add_derivation(gp, acc)
        return GroupRingVector(self.model, acc)


def character(phi: Potential, up, vp) -> Fraction:
    """chi(u, v) = phi(u v^-1) - phi(v^-1 u), u and v of payloads `up` and
    `vp`: the coefficient of d(v) at u."""
    model = phi.model
    vi = model.inv_payload(vp)
    return phi.value(model.mul_payload(up, vi)) - phi.value(model.mul_payload(vi, up))


def leibniz_residual(phi: Potential, gp, hp) -> dict:
    """d(gh) - d(g) h - g d(h) of phi's derivation d, g and h of payloads `gp`
    and `hp`, as exact terms {payload: Fraction}; empty for every derivation."""
    # phi(s)([s(gh)] - [(sg)h] + [(gs)h] - [g(sh)] + [g(hs)] - [(gh)s]) over the support:
    # three associativity brackets, each adding +-phi(s) only at the s whose two keys differ
    model = phi.model
    payloads, values = phi._columns
    mul_all = model.mul_all
    gh = model.mul_payload(gp, hp)
    acc = {}
    for plus, minus in ((mul_all(payloads, gh), mul_all(mul_all(payloads, gp), hp)),
                        (mul_all(mul_all(payloads, gp, left=True), hp),
                         mul_all(mul_all(payloads, hp), gp, left=True)),
                        (mul_all(mul_all(payloads, hp, left=True), gp, left=True),
                         mul_all(payloads, gh, left=True))):
        if plus != minus:
            add_terms(acc, [t for u, v, c in zip(plus, minus, values) if u != v
                            for t in ((u, c), (v, -c))])
    return acc


def quasi_inner_check(phi: Potential, loops):
    """Check that phi's character vanishes on the loops, (u, v) payload
    pairs with u v = v u, read once in order; returns (ok, witness), the
    witness the first (u, v, value) with a nonzero value, if any."""
    model = phi.model
    for up, vp in loops:
        if model.mul_payload(up, vp) != model.mul_payload(vp, up):
            enc = model.encode_payload
            raise UsageError(f"({enc(up)}, {enc(vp)}) is not a loop")
        val = character(phi, up, vp)
        if val != 0:
            return False, (up, vp, val)
    return True, None


# ---------------------------------------------------------------------------
# Probes


def g_boundedness_probe(
    phi: Potential,
    radius: int,
    p: float,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """Max of ||d(g)||_p over the Cayley ball, d phi's derivation, with argmax.

    ||d(g)||_p depends only on the inner automorphism x -> g x g^-1, which
    the images of the generators fix, and through it only on the pairs of
    support elements s, t with g t g^-1 = s: the norms are memoised by both,
    and the model's hit finder lists the pairs once per automorphism.
    """
    if not p >= 1:
        raise UsageError(f"p must be >= 1, got {p}")
    model = phi.model
    ball = model.cayley_ball(radius, node_budget)
    encode = model.encode_payload
    payloads, values = phi._columns
    n = len(payloads)
    base_pows = [_float_pow(v, p) for v in values] * 2
    gens = list(model.generator_payloads().values())
    step, inv, hits_of = model.conj_step, model.inv_payload, model.conj_hits(payloads)
    memo = {tuple(gens): 0.0}  # e fixes every generator, and d(e) = 0
    by_hits = {}
    best = -1.0
    argmax = None
    for gp in sorted(ball, key=lambda p: (ball[p], encode(p))):
        gi = inv(gp)
        key = tuple([step(x, gp, gi) for x in gens])
        norm = memo.get(key)
        if norm is None:
            hits = frozenset(hits_of(gp, gi))
            norm = by_hits.get(hits)
            if norm is None:
                coeffs, pows = hit_column(values, hits), base_pows.copy()
                for i, j in hits:  # powers added in support order
                    pows[i] = 0.0 if i == j else _float_pow(coeffs[i], p)
                    pows[n + j] = 0.0
                norm = by_hits[hits] = float_norm(coeffs, p, lambda: left_sum(pows))
            memo[key] = norm
        if norm > best:
            best = norm
            argmax = gp
    return best, argmax


def hit_column(values, hits) -> list:
    """d(g)'s coefficients up to sign, from phi's column `values` and g's
    hits (i, j), g s_i g^-1 = s_j: phi(s_i) at g s_i (index i) and phi(s_j)
    at s_j g (n + j), except that a hit's g s_i = s_j g holds
    phi(s_j) - phi(s_i) at i and 0 at n + j, and a fixed point (i == j) 0s
    both, with no Fraction built.  A 0 adds nothing to a norm."""
    n = len(values)
    coeffs = [*values, *values]
    for i, j in hits:
        coeffs[i] = _ZERO if i == j else values[j] - values[i]
        coeffs[n + j] = _ZERO
    return coeffs


def _float_pow(c: Fraction, p: float) -> float:
    """|float(c)| ** p, or inf beyond the float range (so a sum of such
    powers sends `float_norm` to its fallback)."""
    try:
        return abs(float(c)) ** p
    except OverflowError:
        return math.inf


def stabilisation_probe(phi: Potential, ball, radii):
    """For each radius r: sup |phi| over ball vertices at distance > r
    (the stabilised-at-0 convention), |phi| read once per vertex."""
    if ball.model.name != phi.model.name:
        raise ModelMismatchError(f"ball of {ball.model.name} used with model {phi.model.name}")
    sizes = [(dp, abs(phi.value(p))) for p, dp in ball.depths.items()]
    return [(r, max((v for dp, v in sizes if dp > r), default=_ZERO)) for r in radii]

