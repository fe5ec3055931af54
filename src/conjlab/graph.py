"""Conjugation-graph exploration: balls, distances, and the BC probe.

Vertices are element payloads; for every generator x (and its inverse)
there is a directed edge g -> x g x^-1 labeled x.  All searches are budgeted
because the ambient graph is infinite: results either are exact or carry
an explicit AtLeast / incompleteness flag.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations

from .errors import UsageError
from .groups import AtLeast, DEFAULT_NODE_BUDGET, GroupModel


class ConjGraphBall:
    """A BFS ball of the conjugation graph of `model` around the payload `base`.

    `depths` maps each vertex payload to its depth, in visiting order.
    `complete` is False when the node budget stopped the exploration early;
    `closed` is True when the whole (finite) component fits in the ball.
    """

    def __init__(self, model: GroupModel, base, radius: int, depths: dict,
                 complete: bool = True, closed: bool = False):
        self.model, self.base, self.radius = model, base, radius
        self.depths, self.complete, self.closed = depths, complete, closed

    @property
    def vertices(self):
        """The ball's payloads, a set-like view of `depths`."""
        return self.depths.keys()

    @cached_property
    def encodings(self) -> dict:
        """{payload: encoding} of every vertex, each encoded once."""
        encode = self.model.encode_payload
        return {p: encode(p) for p in self.depths}

    @cached_property
    def by_encoding(self) -> list:
        """The vertex payloads sorted by encoding."""
        return sorted(self.encodings, key=self.encodings.__getitem__)

    def edge_rows(self, suppress_loops: bool = False):
        """Every edge between ball vertices as a (src encoding, label, dst
        encoding) row, in sorted order, made as it is read: each vertex in
        encoding order is stepped along the generators in label order, and
        one step per label makes each (src, label) pair unique."""
        enc = self.encodings
        step = self.model.conj_step
        labelled = sorted(self.model.gen_triples)  # labels are unique
        for p in self.by_encoding:
            src = enc[p]
            for label, x, xi in labelled:
                dst = enc.get(step(p, x, xi))
                if dst is not None and not (suppress_loops and dst == src):
                    yield src, label, dst

    @cached_property
    def edges(self) -> list:
        """The edge rows, as a list."""
        return list(self.edge_rows())


def conj_neighbors(model: GroupModel, hp):
    """(label, x h x^-1) for every generator or inverse x, h of payload
    `hp`, self-loops included."""
    return [(label, model.conj_step(hp, x, xi)) for label, x, xi in model.gen_triples]


def explore_component(
    model: GroupModel,
    u0,
    radius: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ConjGraphBall:
    """The conjugation-graph ball of the given radius around the payload `u0`."""
    search = model.search(u0, model.conj_step, radius, node_budget)
    return ConjGraphBall(model, u0, radius, search.dist, search.cut is None, search.exhausted)


def conj_distance(model: GroupModel, p1, p2, budget: int,
                  node_budget: int = DEFAULT_NODE_BUDGET):
    """Shortest-path distance in the conjugation graph between the payloads
    p1 and p2; AtLeast(budget) when none is <= budget, AtLeast(shortest
    length not ruled out) when the node budget runs out (`GroupModel.search`
    with a goal).

    Where a search to depth `budget` cannot run out of nodes, it answers
    the distance rho, or AtLeast(budget) when rho > max(budget, 0), so
    that is returned without a search when rho is known: infinite for
    elements with different abelian images, and otherwise the model's
    `conjugator_length`."""
    rho = (math.inf if model.abelian_image(p1) != model.abelian_image(p2)
           else model.conjugator_length(p1, p2))
    if rho is not None and _levels_fit(len(model.gen_triples), budget, node_budget):
        return rho if rho <= max(budget, 0) else AtLeast(budget)
    return model.search(p1, model.conj_step, budget, node_budget, p2).length


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


class BCReport:
    """Evidence for/against the bounded-conjugation condition on a set K:
    `shells` holds (cayley_radius, max_diam: int | AtLeast) pairs, and
    `verdict` is "Plateau(C)", "Growing" or "Inconclusive"."""

    def __init__(self, base_set_encoding: list, shells: list, verdict: str):
        self.base_set_encoding = base_set_encoding
        self.shells, self.verdict = shells, verdict

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


def _set_diameter(model, payloads, budget, node_budget):
    """Max pairwise conjugation distance; AtLeast propagates."""
    return _max_distance([0] + [conj_distance(model, u, v, budget, node_budget)
                                for u, v in combinations(payloads, 2)])


def _apart(model, K) -> bool:
    """Whether two payloads of K have different abelian images."""
    return len({model.abelian_image(k) for k in K}) > 1


def bc_probe(
    model: GroupModel,
    K,
    max_cayley_radius: int,
    diam_budget: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> BCReport:
    """For each Cayley radius r, the worst diameter of g K g^-1 over all
    conjugators g of length <= r, K a collection of payloads.

    Conjugators acting identically on K are expanded once (memo on the
    tuple of image payloads).  Where no distance search can run out of
    nodes, a K with two elements in different abelian images is settled
    once, after the Cayley ball: every g K g^-1 keeps the pair apart, so
    `conj_distance` would make every shell AtLeast(diam_budget).  The
    verdict is a fixed-window heuristic over the shell data; the raw
    shells are always reported.
    """
    K = sorted(set(K), key=model.encode_payload)
    if not K:
        raise UsageError("bc_probe needs a nonempty finite set K")
    ball = model.cayley_ball(max_cayley_radius, node_budget)  # its exit 3 comes first
    if _levels_fit(len(model.gen_triples), diam_budget, node_budget) and _apart(model, K):
        shells = [(r, AtLeast(max(diam_budget, 0))) for r in range(max_cayley_radius + 1)]
    else:
        by_radius = {}
        for g, r in ball.items():
            by_radius.setdefault(r, []).append(g)
        step, inv = model.conj_step, model.inv_payload
        memo, shells, running = {}, [], 0
        for r in range(max_cayley_radius + 1):
            dists = [running]
            for g in by_radius.get(r, ()):
                gi = inv(g)
                images = tuple([step(k, g, gi) for k in K])
                if images not in memo:
                    memo[images] = _set_diameter(model, images, diam_budget, node_budget)
                dists.append(memo[images])
            running = _max_distance(dists)
            shells.append((r, running))
    verdict = _bc_verdict(shells, max_cayley_radius)
    return BCReport(list(map(model.encode_payload, K)), shells, verdict)


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


def export_dot(ball: ConjGraphBall, suppress_loops: bool = False):
    """Deterministic DOT rendering, one line at a time as it is made:
    vertices in encoding order, then the edge rows; identical balls always
    render to identical text."""
    enc = ball.encodings
    yield "digraph conj {\n"
    for p in ball.by_encoding:
        yield f'  "{enc[p]}";\n'
    for src, label, dst in ball.edge_rows(suppress_loops):
        yield f'  "{src}" -> "{dst}" [label="{label}"];\n'
    yield "}\n"
