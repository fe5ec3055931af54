"""Conjugation-graph exploration: balls, distances, and the BC probe.

Vertices are group elements; for every generator x (and its inverse) there
is a directed edge g -> x g x^-1 labeled x.  All searches are budgeted
because the ambient graph is infinite: results either are exact or carry
an explicit AtLeast / incompleteness flag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

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
    vertices: set = field(default_factory=set)
    dist: dict = field(default_factory=dict)
    complete: bool = True
    closed: bool = False

    @cached_property
    def edges(self) -> list:
        """Every edge between ball vertices, sorted by encoding; built on
        first read."""
        edges = []
        for v in self.vertices:
            for gen, w in conj_neighbors(self.base.model, v):
                if w in self.vertices:
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
            "edges": sorted(
                [e.src.encode(), e.label.label(), e.dst.encode()] for e in self.edges
            ),
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
    return ConjGraphBall(u0, radius, set(dist), dist, search.cut is None, search.exhausted)


def conj_distance(
    model: GroupModel,
    h1: GroupElement,
    h2: GroupElement,
    budget: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """Shortest-path distance in the conjugation graph; AtLeast(budget)
    when no path of length <= budget exists (far apart or disconnected),
    AtLeast(depth) when the node budget runs out at that depth."""
    model._check(h1, h2)
    search = model.bfs(h1.payload, model.conj_step, budget, node_budget, [h2.payload])
    return search.distance(h2.payload)


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

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, ensure_ascii=False)


def _max_distance(dists):
    """Max of distances; AtLeast when any of them is one."""
    best = max(d.bound if isinstance(d, AtLeast) else d for d in dists)
    return AtLeast(best) if any(isinstance(d, AtLeast) for d in dists) else best


def _set_diameter(model, elems, budget, node_budget):
    """Max pairwise conjugation distance; AtLeast propagates.

    One search from each element finds all later ones: a pair's distance
    is what `conj_distance` returns, since the visiting order is the same.
    """
    dists = [0]
    for i in range(len(elems) - 1):
        targets = [h.payload for h in elems[i + 1:]]
        search = model.bfs(elems[i].payload, model.conj_step, budget, node_budget, targets)
        dists += [search.distance(t) for t in targets]
    return _max_distance(dists)


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
    for k in K:
        model._check(k)
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
