"""Conjugation-graph exploration: balls, distances, and the BC probe.

Vertices are group elements; for every generator x (and its inverse) there
is a directed edge g -> x g x^-1 labeled x.  All searches are budgeted
because the ambient graph is infinite: results either are exact or carry
an explicit AtLeast / incompleteness flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .errors import UsageError
from .groups import AtLeast, DEFAULT_NODE_BUDGET, Generator, GroupElement, GroupModel


@dataclass(frozen=True)
class ConjEdge:
    src: GroupElement
    label: Generator
    dst: GroupElement

    def is_loop(self) -> bool:
        return self.src == self.dst


@dataclass
class ConjGraphBall:
    """A BFS ball of the conjugation graph around `base`.

    `complete` is False when the node budget stopped the exploration early;
    `closed` is True when the whole (finite) component fits in the ball.
    """

    base: GroupElement
    radius: int
    dist: dict = field(default_factory=dict)
    complete: bool = True
    closed: bool = False

    @property
    def vertices(self):
        """The ball's elements, a set-like view of `dist`."""
        return self.dist.keys()

    @cached_property
    def edges(self) -> list:
        """Every edge between ball vertices, sorted by encoding; built on
        first read."""
        edges = []
        for v in self.dist:
            for gen, w in conj_neighbors(self.base.model, v):
                if w in self.dist:
                    edges.append(ConjEdge(v, gen, w))
        edges.sort(key=lambda e: (e.src.encode(), e.label.label(), e.dst.encode()))
        return edges

    def to_json(self) -> dict:
        return {
            "base": self.base.encode(),
            "radius": self.radius,
            "complete": self.complete,
            "closed": self.closed,
            "vertices": sorted(v.encode() for v in self.vertices),
            "edges": [[e.src.encode(), e.label.label(), e.dst.encode()] for e in self.edges],
            "dist": {v.encode(): d for v, d in self.dist.items()},
        }


def conj_neighbors(model: GroupModel, h: GroupElement):
    """All conjugation neighbors of h: one entry per generator and inverse,
    self-loops included."""
    model._check(h)
    return [(gen, model.element(model.conj_step(h.payload, x, xi)))
            for gen, x, xi in model.gen_triples]


def explore_component(
    model: GroupModel,
    u0: GroupElement,
    radius: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ConjGraphBall:
    model._check(u0)
    search = model.bfs(u0.payload, model.conj_step, radius, node_budget)
    dist = {model.element(p): d for p, d in search.dist.items()}
    return ConjGraphBall(u0, radius, dist, search.cut is None, search.exhausted)


def conj_distance(
    model: GroupModel,
    h1: GroupElement,
    h2: GroupElement,
    budget: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """Shortest-path distance in the conjugation graph; AtLeast(budget)
    when none is <= budget, AtLeast(shortest length not ruled out) when
    the node budget runs out (`GroupModel.distance`).

    Elements with different abelian images are not conjugate.  When a
    search to depth `budget` cannot run out of nodes either, it could only
    return AtLeast(budget), so that is returned without one."""
    model._check(h1, h2)
    if (model.abelian_image(h1.payload) != model.abelian_image(h2.payload)
            and _levels_fit(len(model.gen_triples), budget, node_budget)):
        return AtLeast(budget)
    return model.distance(h1.payload, h2.payload, model.conj_step, budget, node_budget)[0]


def _levels_fit(n: int, depth: int, node_budget: int) -> bool:
    """Whether 1 + n + n^2 + ... + n^depth <= node_budget: with n steps per
    node, a two-way search whose depths sum to at most `depth` visits no
    more nodes (n^(d0 + j) >= n^j), so its node budget cannot run out.
    The sum stops once it passes the budget, so n^depth is never formed."""
    total = level = 1
    for _ in range(depth):
        if total > node_budget:
            break
        level *= n
        total += level
    return total <= node_budget


@dataclass
class BCReport:
    """Evidence for/against the bounded-conjugation condition on a set K."""

    base_set_encoding: list
    shells: list  # (cayley_radius, max_diam: int | AtLeast)
    verdict: str  # "Plateau(C)" | "Growing" | "Inconclusive"

    def to_json(self) -> dict:
        return {
            "K": list(self.base_set_encoding),
            "shells": [
                [r, d if isinstance(d, int) else str(d)] for r, d in self.shells
            ],
            "verdict": self.verdict,
        }


def _max_distance(dists):
    """Max of distances; AtLeast when any of them is one."""
    best = max(d.bound if isinstance(d, AtLeast) else d for d in dists)
    return AtLeast(best) if any(isinstance(d, AtLeast) for d in dists) else best


def _set_diameter(model, elems, budget, node_budget):
    """Max pairwise conjugation distance; AtLeast propagates."""
    return _max_distance([0] + [conj_distance(model, u, v, budget, node_budget)
                                for u, v in combinations(elems, 2)])


def bc_probe(
    model: GroupModel,
    K,
    max_cayley_radius: int,
    diam_budget: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> BCReport:
    """For each Cayley radius r, the worst diameter of g K g^-1 over all
    conjugators g of length <= r.

    Conjugators acting identically on K are expanded once (memo on the
    tuple of images).  The verdict is a fixed-window heuristic over the
    shell data; the raw shells are always reported.
    """
    K = sorted(set(K))
    if not K:
        raise UsageError("bc_probe needs a nonempty finite set K")
    model._check(*K)
    ball = model.cayley_ball(max_cayley_radius, node_budget)
    by_radius = {}
    for g, r in ball.items():
        by_radius.setdefault(r, []).append(g)
    memo = {}
    shells = []
    running = 0
    for r in range(max_cayley_radius + 1):
        dists = [running]
        for g in by_radius.get(r, ()):
            images = tuple(model.conjugate(g, k) for k in K)
            if images not in memo:
                memo[images] = _set_diameter(model, images, diam_budget, node_budget)
            dists.append(memo[images])
        running = _max_distance(dists)
        shells.append((r, running))
    verdict = _bc_verdict(shells, max_cayley_radius)
    return BCReport([k.encode() for k in K], shells, verdict)


def _bc_verdict(shells, max_cayley_radius) -> str:
    values = [d for _, d in shells]
    if any(isinstance(d, AtLeast) for d in values):
        return "Inconclusive"
    window = max(1, math.ceil(max_cayley_radius / 2))
    tail = values[-window:]
    if len(set(tail)) == 1:
        return f"Plateau({tail[0]})"
    last3 = values[-3:]
    if len(last3) == 3 and last3[0] < last3[1] < last3[2]:
        return "Growing"
    return "Inconclusive"


def export_dot(ball: ConjGraphBall, suppress_loops: bool = False) -> str:
    """Deterministic DOT rendering; vertex order is the sorted canonical
    encoding; identical balls always render to identical text."""
    lines = ["digraph conj {"]
    for enc in sorted(v.encode() for v in ball.vertices):
        lines.append(f'  "{enc}";')
    for e in ball.edges:
        if suppress_loops and e.is_loop():
            continue
        lines.append(f'  "{e.src.encode()}" -> "{e.dst.encode()}" [label="{e.label.label()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
