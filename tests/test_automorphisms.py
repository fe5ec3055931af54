"""Automorphism invariance of `bound-probe` and `character` on h3, of
`derive` and `character` on the other five models, and of `limit` and
`bc` on all six.

An automorphism sigma of h3 that permutes the symmetric generating set maps
the Cayley ball onto itself, and d_psi(sigma g) = sigma(d_phi(g)) for the
relabelled potential psi = phi o sigma^-1.  So `bound-probe` prints the
same `max_norm` on psi, at an argmax that maps onto phi's up to ties, and
chi_psi(sigma u, sigma v) = chi_phi(u, v).  `bound-probe` keeps each
coefficient only up to its sign; these checks would see a sign that
reached a norm.  `derive` on psi at sigma g prints phi's image at g with
each element relabelled by sigma, and the same `norm_p`.  `limit` with
each letter of the conjugator relabelled prints the same samples, and at
q = 1 and 2, where it comes from an exact sum, the same `potential_norm`.
`bc` on sigma K prints the same shells and verdict.
"""

import json
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from conjlab import derivations as dv
from conjlab import graph
from conjlab.cli import main
from conjlab.groups import DEFAULT_NODE_BUDGET, get_model, parse_word
from conjlab.ring import lq_pow_exact
from conjlab.groups import random_payload

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


def write_potential(path, table, model=H3) -> str:
    rows = [[model.encode_payload(p), str(v)] for p, v in table.items()]
    path.write_text(json.dumps({"model": model.name, "table": rows}))
    return str(path)


def stdout(capsys, argv) -> dict:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def exact_norm(table, gp, p):
    """||d(g)||_p of the potential `table`, as an exact key: the sum of
    |c|^p, or max |c| for p = inf."""
    image = dv.Derivation(dv.Potential(H3, table)).apply(gp)
    if p == "inf":
        return max(map(abs, image.terms.values()), default=0)
    return lq_pow_exact(image.terms.values(), int(p))


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


# ---------------------------------------------------------------------------
# `derive` off h3


_SWAP_AB = str.maketrans("ab", "ba")


def dinf_automorphism(swap):
    # a <-> b, or the identity
    return lambda w: w.translate(_SWAP_AB) if swap else w


def model_automorphisms(name) -> list:
    """Every automorphism of this kind of the model `name` that permutes its
    symmetric generating set, as a map on payloads."""
    dinf = [dinf_automorphism(swap) for swap in (False, True)]
    h3 = [h3_automorphism(*auto) for auto in AUTOMORPHISMS]
    if name == "h3":
        return h3
    if name == "free2":  # x_i -> x_perm(i)^(+-1)
        return [lambda p, perm=perm, signs=signs: tuple((perm[i], s * signs[i]) for i, s in p)
                for perm in ((0, 1), (1, 0)) for signs in product((1, -1), repeat=2)]
    if name == "dinf":
        return dinf
    if name == "dsemi":  # conjugation by c
        return [lambda p, f=f: (f(p[0]), p[1]) for f in dinf]
    if name == "h3semi":  # equal signs commute with the swap that c acts by
        return [lambda p, f=h3_automorphism(sa, sa, swap): (f(p[0]), p[1])
                for sa in (1, -1) for swap in (False, True)]
    assert name == "h3*dinf"
    return [lambda p, f=f, g=g: (f(p[0]), g(p[1])) for f in h3 for g in dinf]


def model_table(model, rng, keep=lambda p: True) -> dict:
    """{payload: Fraction} of 1 to 5 random entries that `keep` admits."""
    table = {}
    for _ in range(rng.randint(1, 5)):
        p = random_payload(model, rng, 5)
        if keep(p):
            table[p] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    return table or {model.gen_triples[0][1]: Fraction(1)}


OFF_H3_CASES = [(name, i) for name in ("free2", "dinf", "dsemi", "h3semi", "h3*dinf")
                for i in range(len(model_automorphisms(name)))]


@pytest.mark.parametrize("name, index", OFF_H3_CASES, ids=lambda c: str(c))
def test_derive_is_invariant(capsys, tmp_path, name, index):
    model = get_model(name)
    sigma = model_automorphisms(name)[index]
    enc, dec = model.encode_payload, model.decode_payload
    gens = [x for _, x, _ in model.gen_triples]
    assert sorted(map(sigma, gens), key=enc) == sorted(gens, key=enc)
    for seed in range(3):
        rng = Random(1000 * index + seed)
        table = model_table(model, rng)
        files = [write_potential(tmp_path / "phi.json", table, model),
                 write_potential(tmp_path / "psi.json",
                                 {sigma(p): v for p, v in table.items()}, model)]
        gp = random_payload(model, rng)
        for p in ("1", "2", "2.5", "inf"):
            argv = ["derive", "-p", p, "--potential"]
            want = stdout(capsys, argv + [files[0], "--element", enc(gp)])
            got = stdout(capsys, argv + [files[1], "--element", enc(sigma(gp))])
            assert got["element"] == enc(sigma(gp))
            relabelled = {enc(sigma(dec(u))): (c, im) for u, c, im in want["image"]}
            assert {u: (c, im) for u, c, im in got["image"]} == relabelled
            assert got["norm_p"] == want["norm_p"]


@pytest.mark.parametrize("name, index", OFF_H3_CASES, ids=lambda c: str(c))
def test_character_is_invariant_off_h3(capsys, tmp_path, name, index):
    model = get_model(name)
    sigma = model_automorphisms(name)[index]
    enc = model.encode_payload
    rng = Random(2000 + index)
    table = model_table(model, rng)
    phi = write_potential(tmp_path / "phi.json", table, model)
    psi = write_potential(tmp_path / "psi.json", {sigma(p): v for p, v in table.items()}, model)
    support = list(table)
    for _ in range(6):
        vp = random_payload(model, rng)
        s = rng.choice(support)  # u = s v or v s: a nonzero term of d(v) at u
        up = model.mul_payload(s, vp) if rng.random() < 0.5 else model.mul_payload(vp, s)
        want = stdout(capsys, ["character", "--potential", phi, "--u", enc(up), "--v", enc(vp)])
        got = stdout(capsys, ["character", "--potential", psi,
                              "--u", enc(sigma(up)), "--v", enc(sigma(vp))])
        assert got["value"] == want["value"]


LIMIT_CASES = [(name, i) for name in ("h3", "free2", "dinf", "dsemi", "h3semi", "h3*dinf")
               for i in range(len(model_automorphisms(name)))]


@pytest.mark.parametrize("name, index", LIMIT_CASES, ids=lambda c: str(c))
def test_limit_is_invariant(capsys, tmp_path, name, index):
    model = get_model(name)
    sigma = model_automorphisms(name)[index]
    # sigma permutes the generators, so it maps each letter to a letter
    letter = {x: label for label, x, _ in model.gen_triples}
    relabel = {label: letter[sigma(x)] for label, x, _ in model.gen_triples}
    for seed in range(3):
        rng = Random(3000 + 10 * index + seed)
        # limit needs the support in infinite classes
        table = model_table(model, rng, lambda p: not model.class_is_finite(p))
        phi = write_potential(tmp_path / "phi.json", table, model)
        psi = write_potential(tmp_path / "psi.json",
                              {sigma(p): v for p, v in table.items()}, model)
        word = [rng.choice(list(relabel)) for _ in range(rng.randint(1, 6))]
        moved = [relabel[label] for label in word]
        assert parse_word(model, ".".join(moved)) == sigma(parse_word(model, ".".join(word)))
        for q in ("1", "2", "2.5"):
            argv = ["limit", "--q", q, "--k-max", "6", "--format", "json", "--potential"]
            want = stdout(capsys, argv + [phi, "--conjugator", ".".join(word)])
            got = stdout(capsys, argv + [psi, "--conjugator", ".".join(moved)])
            assert got["samples"] == want["samples"]
            assert got["separation_index"] == want["separation_index"]
            # at q = 2.5 the norm is a float sum in the support's encoding order
            if q != "2.5":
                assert got["potential_norm"] == want["potential_norm"]


# ---------------------------------------------------------------------------
# `bc` on all six


def bc_sets(model, rng):
    """Two K: k and one or two conjugates of it, all in one abelian image,
    then the same with the last one times a generator, in another."""
    k = random_payload(model, rng, 4)
    K = [k]
    for _ in range(rng.randint(1, 2)):
        g = random_payload(model, rng, 2)
        K.append(model.conj_step(k, g, model.inv_payload(g)))
    return K, K[:-1] + [model.mul_payload(K[-1], model.gen_triples[0][1])]


@pytest.mark.parametrize("name, index", LIMIT_CASES, ids=lambda c: str(c))
def test_bc_is_invariant(capsys, name, index):
    # sigma keeps word length and maps conjugation edges onto conjugation
    # edges; no distance search can run out of nodes at these budgets, so
    # bc on sigma K prints the same shells, by the search loop for a K in
    # one abelian image and by the settled route for one with an apart pair
    model = get_model(name)
    sigma = model_automorphisms(name)[index]
    enc = model.encode_payload
    argv = ["bc", "--model", name, "--cayley-radius", "2", "--diam-budget", "4"]
    assert graph._levels_fit(len(model.gen_triples), 4, DEFAULT_NODE_BUDGET)
    for seed in range(2):
        for K, apart in zip(bc_sets(model, Random(4000 + 10 * index + seed)), (False, True)):
            assert graph._apart(model, K) is apart
            want = stdout(capsys, argv + [a for k in K for a in ("--k", enc(k))])
            got = stdout(capsys, argv + [a for k in K for a in ("--k", enc(sigma(k)))])
            assert (got["shells"], got["verdict"]) == (want["shells"], want["verdict"])
