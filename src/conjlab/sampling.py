"""Seeded random generation of elements, morphisms, and potentials, used
by the property-check commands and the test suite."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .derivations import Morphism, Potential
from .groups import GroupModel


def random_element(model: GroupModel, rng: Random, max_len: int = 6):
    gens = [x for _, x, _ in model.gen_triples]
    p = model.identity_payload()
    for _ in range(rng.randint(0, max_len)):
        p = model.mul_payload(p, rng.choice(gens))
    return model.element(p)


def random_composable_pair(model: GroupModel, rng: Random, max_len: int = 5):
    """A composable (psi, phi): pick u1, v1, v2 freely and solve for u2
    from the composability equation u1 v1^-1 = v2^-1 u2."""
    u1 = random_element(model, rng, max_len)
    v1 = random_element(model, rng, max_len)
    v2 = random_element(model, rng, max_len)
    u2 = v2 * (u1 * v1.inverse())
    return Morphism(u2, v2), Morphism(u1, v1)


def random_loop(model: GroupModel, rng: Random, max_len: int = 5) -> Morphism:
    """A loop morphism (u, v) with uv = vu: both are powers of one word."""
    w = random_element(model, rng, max_len)
    i = rng.randint(-3, 3)
    j = rng.randint(-3, 3)
    return Morphism(_power(w, i), _power(w, j))


def _power(g, n: int):
    model = g.model
    base = g if n >= 0 else g.inverse()
    out = model.identity()
    for _ in range(abs(n)):
        out = out * base
    return out


def random_potential(model: GroupModel, rng: Random, size: int = 5,
                     max_len: int = 5) -> Potential:
    table = {}
    for _ in range(size):
        g = random_element(model, rng, max_len)
        num = rng.choice([n for n in range(-5, 6) if n != 0])
        den = rng.randint(1, 5)
        table[g] = Fraction(num, den)
    return Potential(model, table)
