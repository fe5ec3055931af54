"""Seeded random generation of payloads and loops, used by the
property-check commands and the test suite."""

from __future__ import annotations

from random import Random

from .groups import GroupModel


def random_payload(model: GroupModel, rng: Random, max_len: int = 6):
    """The payload of a random word of at most `max_len` generators."""
    gens = [x for _, x, _ in model.gen_triples]
    p = model.identity_payload()
    for _ in range(rng.randint(0, max_len)):
        p = model.mul_payload(p, rng.choice(gens))
    return p


def random_loop(model: GroupModel, rng: Random, max_len: int = 5) -> tuple:
    """A loop (u, v) of payloads with uv = vu: both are powers of one word."""
    w = random_payload(model, rng, max_len)
    i = rng.randint(-3, 3)
    j = rng.randint(-3, 3)
    return _power(model, w, i), _power(model, w, j)


def _power(model: GroupModel, p, n: int):
    base = p if n >= 0 else model.inv_payload(p)
    out = model.identity_payload()
    for _ in range(abs(n)):
        out = model.mul_payload(out, base)
    return out
