import json
from itertools import combinations

import pytest

from conjlab import (
    AtLeast,
    BCReport,
    ConjEdge,
    DihedralInf,
    DihedralSemidirect,
    DirectProduct,
    FreeGroup,
    GroupRingVector,
    Heisenberg,
    HeisenbergSemidirect,
    conj_distance,
    conj_neighbors,
    explore_component,
    get_model,
)
from conjlab.cli import parse
from conjlab.graph import _bc_verdict


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
# Element-level oracles of the `graph` and `bc` commands: every edge from
# `conj_neighbors` as a `ConjEdge`, sorted by `.encode()`, and the BC shells
# from `conjugate` and `conj_distance`, rendered as the CLI prints them.


def _cli_json(data) -> str:
    return json.dumps(data, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def oracle_edges(model, ball):
    edges = []
    for v in ball.dist:
        for gen, w in conj_neighbors(model, v):
            if w in ball.dist:
                edges.append(ConjEdge(v, gen, w))
    edges.sort(key=lambda e: (e.src.encode(), e.label.label(), e.dst.encode()))
    return edges


def oracle_graph_stdout(model, base, radius, fmt, suppress_loops, node_budget):
    ball = explore_component(model, base, radius, node_budget)
    edges = [e for e in oracle_edges(model, ball) if not (suppress_loops and e.is_loop())]
    vertices = sorted(v.encode() for v in ball.vertices)
    if fmt == "dot":
        lines = ["digraph conj {"] + [f'  "{enc}";' for enc in vertices]
        lines += [f'  "{e.src.encode()}" -> "{e.dst.encode()}" [label="{e.label.label()}"];'
                  for e in edges]
        return "\n".join(lines + ["}"]) + "\n"
    return _cli_json({
        "base": base.encode(),
        "radius": radius,
        "complete": ball.complete,
        "closed": ball.closed,
        "vertices": vertices,
        "edges": [[e.src.encode(), e.label.label(), e.dst.encode()] for e in edges],
        "dist": {v.encode(): d for v, d in ball.dist.items()},
    })


def _oracle_max(dists):
    best = max(d.bound if isinstance(d, AtLeast) else d for d in dists)
    return AtLeast(best) if any(isinstance(d, AtLeast) for d in dists) else best


def oracle_bc_stdout(model, K, radius, diam_budget, node_budget):
    K = sorted(set(K))
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
    report = BCReport([k.encode() for k in K], shells, _bc_verdict(shells, radius))
    return _cli_json(report.to_json())


def oracle_stdout(argv, node_budget=10**6):
    """What `graph` or `bc` prints for `argv`, by the oracles above;
    `node_budget` is the default of --budget-nodes."""
    args = parse(argv, node_budget)
    model = get_model(args.model)
    if args.command == "graph":
        return oracle_graph_stdout(model, model.decode(args.base), args.radius,
                                   args.format, args.suppress_loops, args.budget_nodes)
    return oracle_bc_stdout(model, [model.decode(k) for k in args.k],
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
# Group-ring vectors from elements, the convolution oracle of
# `Derivation.apply`, and word length as a goal search.


def delta(g, c=1):
    """The vector c g."""
    return GroupRingVector(g.model, {g: c})


def scaled(v, c):
    """The vector c v."""
    return GroupRingVector.from_terms(v.model, {p: c * x for p, x in v.terms.items()} if c else {})


def inner_derivation_apply(x, a):
    """D_x(a) = x a - a x, exactly."""
    return x * a + scaled(a * x, -1)


def word_search(model, g, radius, node_budget=10**6):
    """The goal search for g from the identity along `right_step`: its
    `length` is g's word length when that is <= radius."""
    return model.search(model.identity_payload(), model.right_step, radius, node_budget,
                        g.payload)
