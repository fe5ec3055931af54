from itertools import combinations
from random import Random

import pytest

from conjlab import (
    AtLeast,
    DihedralInf,
    FreeGroup,
    UsageError,
    bc_probe,
    conj_distance,
    conj_neighbors,
    explore_component,
    export_dot,
    get_model,
    parse_word,
)
from conjlab.sampling import random_element


class TestNeighbors:
    def test_h3_ap_neighbors(self, h3):
        Ap = h3.element((1, 0, 0))
        nbrs = dict((g.label(), w) for g, w in conj_neighbors(h3, Ap))
        assert nbrs["Ax"] == h3.element((1, 0, -1))
        assert nbrs["Ax^-1"] == h3.element((1, 0, 1))
        assert nbrs["Ap"] == Ap and nbrs["A1"] == Ap  # loops

    def test_identity_all_loops(self, model):
        e = model.identity()
        assert all(w == e for _, w in conj_neighbors(model, e))

    def test_dinf_chain(self):
        d = DihedralInf()
        nbrs = dict((g.label(), w) for g, w in conj_neighbors(d, d.decode("a")))
        assert nbrs["b"] == d.decode("bab")


class TestExplore:
    def test_central_path_ball(self, h3):
        ball = explore_component(h3, h3.element((1, 0, 0)), radius=3)
        assert ball.vertices == {h3.element((1, 0, k)) for k in range(-3, 4)}
        assert ball.complete and not ball.closed
        for k in range(-3, 4):
            assert ball.dist[h3.element((1, 0, k))] == abs(k)

    def test_identity_component(self, model):
        ball = explore_component(model, model.identity(), radius=4)
        assert ball.vertices == {model.identity()}
        assert ball.closed
        assert all(e.is_loop() for e in ball.edges)

    def test_dsemi_c_component(self):
        m = get_model("dsemi")
        ball = explore_component(m, m.decode("c"), radius=2)
        d1 = {v.encode() for v, d in ball.dist.items() if d == 1}
        assert d1 == {"ab;c", "ba;c"}
        assert {v.encode() for v, d in ball.dist.items() if d == 2} == {
            "abab;c",
            "baba;c",
        }

    def test_dinf_finite_class(self):
        d = DihedralInf()
        ball = explore_component(d, d.decode("ababab"), radius=10)
        assert ball.closed
        assert {v.encode() for v in ball.vertices} == {"ababab", "bababa"}

    def test_edge_symmetry(self, model):
        rng = Random(11)
        base = random_element(model, rng, max_len=3)
        ball = explore_component(model, base, radius=3)
        keys = {(e.src, e.label.gid, e.label.inverse_flag, e.dst) for e in ball.edges}
        for src, gid, inv, dst in keys:
            assert (dst, gid, not inv, src) in keys

    def test_dist_matches_conj_distance(self, model):
        rng = Random(12)
        base = random_element(model, rng, max_len=3)
        ball = explore_component(model, base, radius=3)
        for v, dv in ball.dist.items():
            assert conj_distance(model, base, v, budget=8) == dv

    def test_budget_flagged(self, h3):
        ball = explore_component(h3, h3.element((1, 0, 0)), radius=50, node_budget=5)
        assert not ball.complete and not ball.closed
        # the node that crossed the budget is kept
        assert len(ball.dist) == 6

    def test_radius_zero(self, model):
        ball = explore_component(model, model.identity(), radius=0)
        assert ball.dist == {model.identity(): 0}
        assert ball.complete and not ball.closed
        assert [e.is_loop() for e in ball.edges] == [True] * len(model.all_gens())

    def test_closed_only_when_frontier_empties_within_radius(self):
        # the class {ababab, bababa}: the frontier empties at depth 2
        d = DihedralInf()
        one = explore_component(d, d.decode("ababab"), radius=1)
        two = explore_component(d, d.decode("ababab"), radius=2)
        assert one.vertices == two.vertices
        assert one.complete and not one.closed
        assert two.complete and two.closed

    def test_h3_component_preserves_ab(self, h3):
        rng = Random(13)
        for _ in range(10):
            base = random_element(h3, rng, max_len=4)
            a, b, _ = base.payload
            ball = explore_component(h3, base, radius=3)
            for v in ball.vertices:
                assert v.payload[0] == a and v.payload[1] == b


class TestDistance:
    def test_reflexive(self, model):
        g = random_element(model, Random(14))
        assert conj_distance(model, g, g, budget=4) == 0

    def test_dinf_adjacent(self):
        d = DihedralInf()
        assert conj_distance(d, d.decode("a"), d.decode("bab"), budget=4) == 1

    def test_free_group_stretch(self):
        f2 = FreeGroup(2)
        x = f2.decode("x1")
        # x^3 (y x y^-1) x^-3 is 4 conjugation steps from x
        far = f2.normal_form(parse_word(f2, "x1.x1.x1.x2.x1.x2^-1.x1^-1.x1^-1.x1^-1"))
        assert conj_distance(f2, f2.decode("x2.x1.x2^-1"), x, budget=8) == 1
        assert conj_distance(f2, x, far, budget=8) == 4

    def test_disconnected_sentinel(self, h3):
        # distinct (a, b) coordinates are in different components
        d = conj_distance(h3, h3.element((1, 0, 0)), h3.element((0, 1, 0)), budget=5)
        assert d == AtLeast(5)

    def test_node_budget_gives_depth_reached(self, h3):
        # the central path from (1, 0, 0): 5 nodes fill depths 0-2, and the
        # first depth-3 node, (1, 0, -3), crosses a node budget of 5
        base = h3.element((1, 0, 0))
        far = conj_distance(h3, base, h3.element((1, 0, 10)), budget=20, node_budget=5)
        assert far == AtLeast(3)
        assert conj_distance(h3, base, h3.element((1, 0, 3)), 20, 5) == AtLeast(3)
        # a target that is itself the node crossing the budget is still found
        assert conj_distance(h3, base, h3.element((1, 0, -3)), 20, 5) == 3

    @pytest.mark.parametrize("a", range(-2, 3))
    @pytest.mark.parametrize("b", range(-2, 3))
    def test_h3_closed_form(self, h3, a, b):
        # conjugating (a, b, c) by Ap adds b to c and by Ax subtracts a, so
        # rho((a, b, c), (a, b, c + delta)) = min |i| + |j| over
        # i b - j a = delta
        budget = 5

        def oracle(delta):
            for s in range(budget + 1):
                for i in range(-s, s + 1):
                    for j in (s - abs(i), abs(i) - s):
                        if i * b - j * a == delta:
                            return s
            return AtLeast(budget)

        base = h3.element((a, b, 1))
        for delta in range(-6, 7):
            other = h3.element((a, b, 1 + delta))
            assert conj_distance(h3, base, other, budget) == oracle(delta), delta

    def test_symmetry_and_triangle(self):
        d = DihedralInf()
        ball = explore_component(d, d.decode("a"), radius=5)
        verts = sorted(ball.vertices)
        dist = {
            (u, v): conj_distance(d, u, v, budget=12)
            for u in verts
            for v in verts
        }
        for u, v in combinations(verts, 2):
            assert dist[(u, v)] == dist[(v, u)]
        for u in verts:
            for v in verts:
                for w in verts:
                    assert dist[(u, w)] <= dist[(u, v)] + dist[(v, w)]


class TestBCProbe:
    def test_h3_plateau(self, h3):
        K = [h3.element((1, 0, 0)), h3.element((1, 0, 1))]
        report = bc_probe(h3, K, max_cayley_radius=4, diam_budget=16)
        assert all(d == 1 for _, d in report.shells)
        assert report.verdict == "Plateau(1)"

    def test_singleton_plateau_zero(self, model):
        g = random_element(model, Random(15), max_len=3)
        report = bc_probe(model, [g], max_cayley_radius=3, diam_budget=8)
        assert report.verdict == "Plateau(0)"

    def test_h3semi_growing(self):
        m = get_model("h3semi")
        K = [m.decode("H3(0,1,0)"), m.decode("H3(1,0,0)")]
        report = bc_probe(m, K, max_cayley_radius=4, diam_budget=16)
        assert report.verdict == "Growing"
        vals = [d for _, d in report.shells]
        assert vals == sorted(vals)

    def test_shells_monotone(self):
        d = DihedralInf()
        K = [d.decode("a"), d.decode("bab")]
        report = bc_probe(d, K, max_cayley_radius=5, diam_budget=16)
        vals = [x for _, x in report.shells]
        assert vals == sorted(vals)

    def test_empty_k_rejected(self, h3):
        with pytest.raises(UsageError):
            bc_probe(h3, [], 3, 8)

    def test_json_schema(self, h3):
        report = bc_probe(h3, [h3.element((1, 0, 0))], 2, 8)
        data = report.to_json()
        assert set(data) == {"K", "shells", "verdict"}
        assert data["shells"] == [[0, 0], [1, 0], [2, 0]]


def _pairwise_shells(model, K, radius, diam_budget, node_budget):
    """bc_probe's shells recomputed from pairwise conj_distance calls."""
    K = sorted(set(K))
    ball = model.cayley_ball(radius, node_budget)
    dists = []
    shells = []
    for r in range(radius + 1):
        for g, rg in ball.items():
            if rg == r:
                images = [model.conjugate(g, k) for k in K]
                dists += [conj_distance(model, u, v, diam_budget, node_budget)
                          for u, v in combinations(images, 2)]
        bounds = [d.bound if isinstance(d, AtLeast) else d for d in dists]
        lower = any(isinstance(d, AtLeast) for d in dists)
        shells.append((r, AtLeast(max(bounds)) if lower else max(bounds)))
    return shells


class TestBCBudget:
    @pytest.mark.parametrize("node_budget", [5, 10, 40, 1000])
    def test_free2_matches_pairwise(self, node_budget):
        f2 = FreeGroup(2)
        K = [f2.decode(w) for w in ("x1", "x2.x1.x2^-1", "x1.x2.x1.x2^-1.x1^-1")]
        report = bc_probe(f2, K, 1, 6, node_budget)
        assert report.shells == _pairwise_shells(f2, K, 1, 6, node_budget)
        if node_budget == 5:
            assert report.shells[-1][1] == AtLeast(2)

    @pytest.mark.parametrize("node_budget", [8, 12, 16, 1000])
    def test_dsemi_matches_pairwise(self, node_budget):
        m = get_model("dsemi")
        K = [m.decode(w) for w in ("a", "b", "babab", "abababa")]
        report = bc_probe(m, K, 2, 8, node_budget)
        assert report.shells == _pairwise_shells(m, K, 2, 8, node_budget)
        if node_budget == 8:
            assert report.shells[-1][1] == AtLeast(4)


class TestDot:
    def test_single_vertex(self, h3):
        ball = explore_component(h3, h3.identity(), radius=2)
        dot = export_dot(ball, suppress_loops=True)
        assert dot.count("->") == 0
        assert '"H3(0,0,0)";' in dot

    def test_central_path_edges(self, h3):
        ball = explore_component(h3, h3.element((1, 0, 0)), radius=2)
        dot = export_dot(ball, suppress_loops=True)
        # 5 nodes, Ax edges shifting k downward plus their reverses
        assert dot.count(";") == 5 + 8
        assert '"H3(1,0,0)" -> "H3(1,0,-1)" [label="Ax"];' in dot
        assert '"H3(1,0,-1)" -> "H3(1,0,0)" [label="Ax^-1"];' in dot

    def test_deterministic(self):
        m = get_model("dsemi")
        b1 = explore_component(m, m.decode("a"), radius=2)
        b2 = explore_component(m, m.decode("a"), radius=2)
        assert export_dot(b1) == export_dot(b2)

    def test_dsemi_ladder_rungs(self):
        m = get_model("dsemi")
        ball = explore_component(m, m.decode("a"), radius=2)
        dot = export_dot(ball, suppress_loops=True)
        # rungs of the ladder carry the label c
        assert '"a" -> "b" [label="c"];' in dot
