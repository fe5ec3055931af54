import contextlib
import json
import os
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from conjlab import (
    AtLeast,
    BCReport,
    DihedralInf,
    DihedralSemidirect,
    DirectProduct,
    FreeGroup,
    GroupRingVector,
    Heisenberg,
    HeisenbergSemidirect,
    Potential,
    UsageError,
    conj_distance,
    conj_neighbors,
    explore_component,
    get_model,
)
from conjlab.cli import main, parse
from conjlab.graph import _bc_verdict
from conjlab.groups import DEFAULT_NODE_BUDGET, GroupModel
from conjlab.ring import add_terms
from conjlab.groups import random_payload


def all_models():
    return [
        Heisenberg(),
        FreeGroup(2),
        DihedralInf(),
        DihedralSemidirect(),
        HeisenbergSemidirect(),
        DirectProduct(Heisenberg(), DihedralInf()),
    ]


@pytest.fixture(params=all_models(), ids=lambda m: m.name)
def model(request):
    return request.param


@pytest.fixture
def h3():
    return Heisenberg()


# ---------------------------------------------------------------------------
# Independent 3x3 integer matrix oracle for the Heisenberg group.
# The element with triple (a, b, c) is the matrix [[1,a,c],[0,1,b],[0,0,1]].


def mat_of(payload):
    a, b, c = payload
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def triple_of(mat):
    assert mat[0][0] == mat[1][1] == mat[2][2] == 1
    assert mat[1][0] == mat[2][0] == mat[2][1] == 0
    return (mat[0][1], mat[1][2], mat[0][2])


def mat_mul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat_inv(m):
    # adjugate divided by determinant; determinant is 1 here so this stays
    # in the integers
    det = mat_det(m)
    assert det == 1
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = (
                m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
            )
            cof[j][i] = (-1) ** (i + j) * minor
    return tuple(tuple(row) for row in cof)


# ---------------------------------------------------------------------------
# Oracles of the `graph` and `bc` commands: every edge from `conj_neighbors`
# as an (encoding, label, encoding) row, sorted, and the BC shells from
# `conjugate` and `conj_distance`, rendered as the CLI prints them.


def _cli_json(data) -> str:
    return json.dumps(data, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def oracle_edges(model, ball):
    """(src, label, dst) rows of every edge between ball vertices, sorted."""
    enc = model.encode_payload
    return sorted((enc(v), label, enc(w))
                  for v in ball.depths for label, w in conj_neighbors(model, v)
                  if w in ball.depths)


def oracle_graph_stdout(model, base, radius, fmt, suppress_loops, node_budget):
    ball = explore_component(model, base, radius, node_budget)
    edges = [e for e in oracle_edges(model, ball) if not (suppress_loops and e[0] == e[2])]
    enc = model.encode_payload
    vertices = sorted(enc(v) for v in ball.vertices)
    if fmt == "dot":
        lines = ["digraph conj {"] + [f'  "{v}";' for v in vertices]
        lines += [f'  "{src}" -> "{dst}" [label="{label}"];' for src, label, dst in edges]
        return "\n".join(lines + ["}"]) + "\n"
    return _cli_json({
        "base": enc(base),
        "radius": radius,
        "complete": ball.complete,
        "closed": ball.closed,
        "vertices": vertices,
        "edges": [list(e) for e in edges],
        "dist": {enc(v): d for v, d in ball.depths.items()},
    })


def _oracle_max(dists):
    best = max(d.bound if isinstance(d, AtLeast) else d for d in dists)
    return AtLeast(best) if any(isinstance(d, AtLeast) for d in dists) else best


def oracle_bc_stdout(model, K, radius, diam_budget, node_budget):
    K = sorted(set(K), key=model.encode_payload)
    ball = model.cayley_ball(radius, node_budget)
    memo, shells, running = {}, [], 0
    for r in range(radius + 1):
        dists = [running]
        for g in (g for g, rg in ball.items() if rg == r):
            images = tuple(model.conjugate(g, k) for k in K)
            if images not in memo:
                memo[images] = _oracle_max(
                    [0] + [conj_distance(model, u, v, diam_budget, node_budget)
                           for u, v in combinations(images, 2)])
            dists.append(memo[images])
        running = _oracle_max(dists)
        shells.append((r, running))
    report = BCReport(list(map(model.encode_payload, K)), shells, _bc_verdict(shells, radius))
    return _cli_json(report.to_json())


def oracle_stdout(argv, node_budget=DEFAULT_NODE_BUDGET):
    """What `graph` or `bc` prints for `argv`, by the oracles above;
    `node_budget` is the default of --budget-nodes."""
    args = parse(argv, node_budget)
    model = get_model(args.model)
    if args.command == "graph":
        return oracle_graph_stdout(model, model.decode_payload(args.base), args.radius,
                                   args.format, args.suppress_loops, args.budget_nodes)
    return oracle_bc_stdout(model, [model.decode_payload(k) for k in args.k],
                            args.cayley_radius, args.diam_budget, args.budget_nodes)


# ---------------------------------------------------------------------------
# The two search kernels that `GroupModel.search` replaced, kept verbatim as
# reference oracles: a one-way ball and a two-way distance over payloads.


def reference_bfs(model, start, step, radius, node_budget):
    """(dist, cut depth or None, exhausted) of the old one-way ball."""
    dist = {start: 0}
    frontier = [start]
    for depth in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for _, x, xi in model.gen_triples:
                w = step(v, x, xi)
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
                    if len(dist) > node_budget:
                        return dist, depth, False
        if not nxt:
            return dist, None, True
        frontier = nxt
    return dist, None, False


def reference_distance(model, start, goal, step, radius, node_budget):
    """(length, nodes visited at a cut or None) of the old two-way search."""
    if start == goal:
        return 0, None
    seen = ({start: 0}, {goal: 0})
    fronts = [[start], [goal]]
    depth = [0, 0]
    visited = 1
    while depth[0] + depth[1] < radius:
        i = int(len(fronts[1]) < len(fronts[0]))
        here, there = seen[i], seen[1 - i]
        depth[i] += 1
        nxt = []
        for v in fronts[i]:
            for _, x, xi in model.gen_triples:
                w = step(v, x, xi)
                if w in there:
                    return depth[i] + there[w], None
                if w not in here:
                    here[w] = depth[i]
                    nxt.append(w)
                    visited += 1
                    if visited > node_budget:
                        return AtLeast(depth[0] + depth[1]), visited
        if not nxt:
            return AtLeast(radius), None
        fronts[i] = nxt
    return AtLeast(radius), None


# ---------------------------------------------------------------------------
# Group-ring vectors from payloads, the convolution oracle of
# `Derivation.apply`, and word length as a goal search.


def delta(model, p, c=1):
    """The vector c g, g of payload `p`."""
    return GroupRingVector(model, {p: Fraction(c)} if c else {})


def scaled(v, c):
    """The vector c v."""
    return GroupRingVector(v.model, {p: c * x for p, x in v.terms.items()} if c else {})


def inner_derivation_apply(x, a):
    """D_x(a) = x a - a x, exactly."""
    return x * a + scaled(a * x, -1)


def word_search(model, gp, radius, node_budget=DEFAULT_NODE_BUDGET):
    """The goal search for the payload `gp` from the identity along
    `right_step`: its `length` is the word length when that is <= radius."""
    return model.search(model.identity_payload(), model.right_step, radius, node_budget, gp)


def traced_peak(argv) -> int:
    """tracemalloc's peak while `main` runs `argv`, its stdout discarded."""
    tracemalloc.start()
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# The conjugation groupoid on payloads, the oracle of the payload
# `character`: a morphism (u, v) goes from v^-1 u to u v^-1, and
# chi(u, v) = phi(u v^-1) - phi(v^-1 u) = d(v)[u].


@dataclass(frozen=True)
class Morphism:
    """The payload pair (u, v) of `model`: a morphism from v^-1 u to u v^-1."""

    model: object = field(compare=False)
    u: object
    v: object

    def source(self):
        m = self.model
        return m.mul_payload(m.inv_payload(self.v), self.u)

    def target(self):
        m = self.model
        return m.mul_payload(self.u, m.inv_payload(self.v))

    def is_loop(self) -> bool:
        m = self.model
        return m.mul_payload(self.u, self.v) == m.mul_payload(self.v, self.u)


def identity_morphism(model, obj) -> Morphism:
    """The identity loop at an object: (g, e)."""
    return Morphism(model, obj, model.identity_payload())


def compose_morphisms(psi: Morphism, phi: Morphism) -> Morphism:
    """(u2, v2) o (u1, v1) = (v2 u1, v2 v1), defined when the target of phi
    equals the source of psi."""
    if phi.target() != psi.source():
        raise UsageError("morphisms are not composable")
    mul = psi.model.mul_payload
    return Morphism(psi.model, mul(psi.v, phi.u), mul(psi.v, phi.v))


def character_from_potential(phi, mor: Morphism) -> Fraction:
    """chi(h, g) = phi(h g^-1) - phi(g^-1 h), through `Potential.value`."""
    m, h = mor.model, mor.u
    ginv = m.inv_payload(mor.v)
    return phi.value(m.mul_payload(h, ginv)) - phi.value(m.mul_payload(ginv, h))


def character_from_derivation(d, mor: Morphism) -> Fraction:
    """chi(h, g) = delta_h(d(g))."""
    return d.apply(mor.v).coefficient(mor.u)


def loop_morphism(model, loop) -> Morphism:
    """The morphism of a (u, v) payload pair."""
    return Morphism(model, *loop)


def random_composable_pair(model, rng, max_len: int = 5):
    """A composable (psi, phi): pick u1, v1, v2 freely and solve for u2
    from the composability equation u1 v1^-1 = v2^-1 u2."""
    u1 = random_payload(model, rng, max_len)
    v1 = random_payload(model, rng, max_len)
    v2 = random_payload(model, rng, max_len)
    mul = model.mul_payload
    u2 = mul(v2, mul(u1, model.inv_payload(v1)))
    return Morphism(model, u2, v2), Morphism(model, u1, v1)


def closed_form_coefficient(m: int, n: int) -> Fraction:
    """Exact coefficient at Ax^-n Ap A1^-n in the image of the symmetric
    window sum of Ax powers: sum over window exponents k != 0 from
    max(-n+1, -m) to m of 1/(k+n)."""
    return sum((Fraction(1, k + n) for k in range(max(-n + 1, -m), m + 1) if k), Fraction(0))


# ---------------------------------------------------------------------------
# Two deliberately non-associative products, so that d(gh) - d(g)h - g d(h)
# is not zero, and the six termwise sums of that residual, the reference of
# `leibniz_residual` where it has something to compute.


class SkewDihedral(DihedralInf):
    """dinf whose product is e for a two-letter word times a letter that
    does not cancel (ab a = e): wrong on that one length pattern."""

    name = "dinf_skew"

    def mul_payload(self, p1, p2):
        if len(p1) == 2 and len(p2) == 1 and p1[-1] != p2:
            return ""
        return super().mul_payload(p1, p2)


class SkewHeisenberg(Heisenberg):
    """h3 with the cocycle a1 b2^2 in place of a1 b2, and the base class's
    `mul_all`, one `mul_payload` per term."""

    name = "h3_skew"
    mul_all = GroupModel.mul_all

    def mul_payload(self, p1, p2):
        (a1, b1, c1), (a2, b2, c2) = p1, p2
        return (a1 + a2, b1 + b2, c1 + c2 + a1 * b2 * b2)


def six_sum_residual(phi, gp, hp):
    """The terms of d(gh) - d(g)h - g d(h), by six termwise sums into one dict
    of the ints D phi (D the lcm of the support's denominators), divided by D
    at the end: every term added, none compared first."""
    model = phi.model
    den, (payloads, pos) = phi._scaled_columns
    minus = [-n for n in pos]
    mul_all = model.mul_all
    gh = model.mul_payload(gp, hp)
    acc = {}
    for keys, coeffs in ((mul_all(payloads, gh), pos), (mul_all(payloads, gh, left=True), minus),
                         (mul_all(mul_all(payloads, gp), hp), minus),
                         (mul_all(mul_all(payloads, gp, left=True), hp), pos),
                         (mul_all(mul_all(payloads, hp), gp, left=True), minus),
                         (mul_all(mul_all(payloads, hp, left=True), gp, left=True), pos)):
        add_terms(acc, zip(keys, coeffs))
    return {u: Fraction(n, den) for u, n in acc.items()}


def random_potential(model, rng: Random, size: int = 5, max_len: int = 5) -> Potential:
    """A potential of at most `size` random entries, words of at most
    `max_len` generators with nonzero values n/d, |n| <= 5 and d <= 5."""
    table = {}
    for _ in range(size):
        g = random_payload(model, rng, max_len)
        num = rng.choice([n for n in range(-5, 6) if n != 0])
        den = rng.randint(1, 5)
        table[g] = Fraction(num, den)
    return Potential(model, table)
