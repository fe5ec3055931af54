"""Automorphism invariance of `bound-probe` and `character` on h3.

An automorphism sigma of h3 that permutes the symmetric generating set maps
the Cayley ball onto itself, and d_psi(sigma g) = sigma(d_phi(g)) for the
relabelled potential psi = phi o sigma^-1.  So `bound-probe` prints the
same `max_norm` on psi, at an argmax that maps onto phi's up to ties, and
chi_psi(sigma u, sigma v) = chi_phi(u, v).  `bound-probe` keeps each
coefficient only up to its sign; these checks would see a sign that
reached a norm.
"""

import json
from fractions import Fraction
from random import Random

import pytest

from conjlab import derivations as dv
from conjlab.cli import main
from conjlab.groups import get_model
from conjlab.sampling import random_payload

H3 = get_model("h3")


def h3_automorphism(sa, sb, swap):
    # (a, b, c) -> (sa a, sb b, sa sb c), then optionally the swap
    # (a, b, c) -> (b, a, ab - c): each permutes {Ax, Ap, A1}^+-1
    def f(t):
        a, b, c = sa * t[0], sb * t[1], sa * sb * t[2]
        return (b, a, a * b - c) if swap else (a, b, c)

    return f


AUTOMORPHISMS = [(sa, sb, swap) for sa in (1, -1) for sb in (1, -1) for swap in (False, True)]


def fuzzed_table(rng) -> dict:
    """{payload: Fraction} of 1 to 6 random entries off the identity."""
    table = {}
    for _ in range(rng.randint(1, 6)):
        p = random_payload(H3, rng, 5)
        if p != (0, 0, 0):
            table[p] = Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 5))
    return table or {(1, 0, 0): Fraction(1)}


def write_potential(path, table) -> str:
    rows = [[H3.encode_payload(p), str(v)] for p, v in table.items()]
    path.write_text(json.dumps({"model": "h3", "table": rows}))
    return str(path)


def stdout(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def exact_norm(table, gp, p):
    """||d(g)||_p of the potential `table`, as an exact key: the sum of
    |c|^p, or max |c| for p = inf."""
    phi = dv.Potential(H3, {H3.element(s): v for s, v in table.items()})
    image = dv.Derivation(phi).apply(H3.element(gp))
    if p == "inf":
        return max(map(abs, image.terms.values()), default=0)
    return image.lq_pow_exact(int(p))


CASES = [(seed, auto) for seed in range(6) for auto in AUTOMORPHISMS]


@pytest.mark.parametrize("seed, auto", CASES, ids=lambda c: str(c))
def test_bound_probe_is_invariant(capsys, tmp_path, seed, auto):
    rng = Random(seed)
    sigma = h3_automorphism(*auto)
    table = fuzzed_table(rng)
    moved = {sigma(p): v for p, v in table.items()}
    phi = write_potential(tmp_path / "phi.json", table)
    psi = write_potential(tmp_path / "psi.json", moved)
    for p in ("1", "2", "3", "inf"):
        argv = ["bound-probe", "--radius", "2", "-p", p, "--potential"]
        want = stdout(capsys, argv + [phi])
        got = stdout(capsys, argv + [psi])
        assert got["max_norm"] == want["max_norm"]
        image = sigma(H3.decode_payload(want["argmax"]))
        argmax = H3.decode_payload(got["argmax"])
        if argmax != image:  # a tie, broken by encoding
            assert exact_norm(moved, argmax, p) == exact_norm(moved, image, p)


@pytest.mark.parametrize("seed, auto", CASES, ids=lambda c: str(c))
def test_character_is_invariant(capsys, tmp_path, seed, auto):
    rng = Random(100 + seed)
    sigma = h3_automorphism(*auto)
    table = fuzzed_table(rng)
    phi = write_potential(tmp_path / "phi.json", table)
    psi = write_potential(tmp_path / "psi.json", {sigma(p): v for p, v in table.items()})
    support = list(table)
    for _ in range(6):
        vp = random_payload(H3, rng)
        s = rng.choice(support)  # u = s v or v s: a nonzero term of d(v) at u
        up = H3.mul_payload(s, vp) if rng.random() < 0.5 else H3.mul_payload(vp, s)
        enc = H3.encode_payload
        want = stdout(capsys, ["character", "--potential", phi, "--u", enc(up), "--v", enc(vp)])
        got = stdout(capsys, ["character", "--potential", psi,
                              "--u", enc(sigma(up)), "--v", enc(sigma(vp))])
        assert got["value"] == want["value"]
