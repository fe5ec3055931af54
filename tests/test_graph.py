import json
from itertools import combinations, product
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab import (
    AtLeast,
    DihedralInf,
    FreeGroup,
    ResourceBudgetError,
    bc_probe,
    conj_distance,
    conj_neighbors,
    explore_component,
    export_dot,
    get_model,
    parse_word,
)
from conjlab import graph
from conjlab.cli import main
from conjlab.groups import SwapExtension
from conjlab.groups import random_payload

from conftest import oracle_stdout, traced_peak
from test_corpus import MODELS as CORPUS_MODELS


class TestNeighbors:
    def test_h3_ap_neighbors(self, h3):
        Ap = (1, 0, 0)
        nbrs = dict(conj_neighbors(h3, Ap))
        assert nbrs["Ax"] == (1, 0, -1)
        assert nbrs["Ax^-1"] == (1, 0, 1)
        assert nbrs["Ap"] == Ap and nbrs["A1"] == Ap  # loops

    def test_identity_all_loops(self, model):
        e = model.identity_payload()
        assert all(w == e for _, w in conj_neighbors(model, e))

    def test_dinf_chain(self):
        d = DihedralInf()
        nbrs = dict(conj_neighbors(d, d.decode_payload("a")))
        assert nbrs["b"] == d.decode_payload("bab")


class TestExplore:
    def test_central_path_ball(self, h3):
        ball = explore_component(h3, (1, 0, 0), radius=3)
        assert ball.vertices == {(1, 0, k) for k in range(-3, 4)}
        assert ball.complete and not ball.closed
        for k in range(-3, 4):
            assert ball.depths[(1, 0, k)] == abs(k)

    def test_identity_component(self, model):
        ball = explore_component(model, model.identity_payload(), radius=4)
        assert ball.vertices == {model.identity_payload()}
        assert ball.closed
        assert all(src == dst for src, _, dst in ball.edges)

    def test_dsemi_c_component(self):
        m = get_model("dsemi")
        ball = explore_component(m, m.decode_payload("c"), radius=2)
        d1 = {m.encode_payload(v) for v, d in ball.depths.items() if d == 1}
        assert d1 == {"ab;c", "ba;c"}
        assert {m.encode_payload(v) for v, d in ball.depths.items() if d == 2} == {
            "abab;c",
            "baba;c",
        }

    def test_dinf_finite_class(self):
        d = DihedralInf()
        ball = explore_component(d, d.decode_payload("ababab"), radius=10)
        assert ball.closed
        assert set(map(d.encode_payload, ball.vertices)) == {"ababab", "bababa"}

    def test_edge_symmetry(self, model):
        rng = Random(11)
        base = random_payload(model, rng, max_len=3)
        ball = explore_component(model, base, radius=3)
        keys = set(ball.edges)
        for src, label, dst in keys:
            inverse = label.removesuffix("^-1") if label.endswith("^-1") else label + "^-1"
            assert (dst, inverse, src) in keys

    def test_dist_matches_conj_distance(self, model):
        rng = Random(12)
        base = random_payload(model, rng, max_len=3)
        ball = explore_component(model, base, radius=3)
        for v, dv in ball.depths.items():
            assert conj_distance(model, base, v, budget=8) == dv

    def test_budget_flagged(self, h3):
        ball = explore_component(h3, (1, 0, 0), radius=50, node_budget=5)
        assert not ball.complete and not ball.closed
        # the node that crossed the budget is kept
        assert len(ball.depths) == 6

    def test_radius_zero(self, model):
        ball = explore_component(model, model.identity_payload(), radius=0)
        assert ball.depths == {model.identity_payload(): 0}
        assert ball.complete and not ball.closed
        assert [src == dst for src, _, dst in ball.edges] == [True] * len(model.gen_triples)

    def test_closed_only_when_frontier_empties_within_radius(self):
        # the class {ababab, bababa}: the frontier empties at depth 2
        d = DihedralInf()
        one = explore_component(d, d.decode_payload("ababab"), radius=1)
        two = explore_component(d, d.decode_payload("ababab"), radius=2)
        assert one.vertices == two.vertices
        assert one.complete and not one.closed
        assert two.complete and two.closed

    def test_h3_component_preserves_ab(self, h3):
        rng = Random(13)
        for _ in range(10):
            base = random_payload(h3, rng, max_len=4)
            a, b, _ = base
            ball = explore_component(h3, base, radius=3)
            for v in ball.vertices:
                assert v[0] == a and v[1] == b


class TestDistance:
    def test_reflexive(self, model):
        g = random_payload(model, Random(14))
        assert conj_distance(model, g, g, budget=4) == 0

    def test_dinf_adjacent(self):
        d = DihedralInf()
        assert conj_distance(d, d.decode_payload("a"), d.decode_payload("bab"), budget=4) == 1

    def test_free_group_stretch(self):
        f2 = FreeGroup(2)
        x = f2.decode_payload("x1")
        # x^3 (y x y^-1) x^-3 is 4 conjugation steps from x
        far = parse_word(f2, "x1.x1.x1.x2.x1.x2^-1.x1^-1.x1^-1.x1^-1")
        assert conj_distance(f2, f2.decode_payload("x2.x1.x2^-1"), x, budget=8) == 1
        assert conj_distance(f2, x, far, budget=8) == 4

    def test_disconnected_sentinel(self, h3):
        # distinct (a, b) coordinates are in different components
        d = conj_distance(h3, (1, 0, 0), (0, 1, 0), budget=5)
        assert d == AtLeast(5)

    def test_node_budget_gives_depth_reached(self, h3):
        # the central path from (1, 0, 0), searched from both ends: the
        # start's side grows to depth 1, then the target's, which has the
        # smaller frontier; the start and these 4 nodes (the target itself
        # is not counted) rule out every length <= 2, and the start's first
        # depth-2 node, (1, 0, -2), is the 6th and crosses a node budget of
        # 5, so the shortest length not ruled out is 3
        base = (1, 0, 0)
        far = conj_distance(h3, base, (1, 0, 10), budget=20, node_budget=5)
        assert far == AtLeast(3)
        assert conj_distance(h3, base, (1, 0, 3), 20, 5) == AtLeast(3)
        # a meet is checked before the budget: from (1, 0, -3) the target's
        # side holds (1, 0, -2), the start's first depth-2 node, so 2 + 1
        assert conj_distance(h3, base, (1, 0, -3), 20, 5) == 3

    @pytest.mark.parametrize("a", range(-2, 3))
    @pytest.mark.parametrize("b", range(-2, 3))
    def test_h3_closed_form(self, h3, a, b):
        budget = 5
        base = (a, b, 1)
        for delta in range(-6, 7):
            other = (a, b, 1 + delta)
            want = h3_oracle_distance(base, other, budget)
            assert conj_distance(h3, base, other, budget) == want, delta

    @pytest.mark.parametrize("words", [
        ["a", "bab", "ababa", "bababab", "ab" * 6 + "a", "ba" * 7 + "b"],
        ["b", "aba", "babababab"],
        ["ab", "ba", "abab", "a"],
        ["e", "ab"],
    ])
    def test_dinf_classes_brute_force(self, words):
        # an independent BFS over reduced strings: the edges are w -> a w a
        # and w -> b w b.  The class of a reflection (odd length) is the path
        # of words with its middle letter, each step changing the length by
        # 2; a rotation is adjacent to its inverse (the reversed word) only.
        d = DihedralInf()
        budget = 6

        def reduce(w):
            out = []
            for ch in w:
                if out and out[-1] == ch:
                    out.pop()
                else:
                    out.append(ch)
            return "".join(out)

        def brute(u, v):
            dist, frontier = {u: 0}, [u]
            for depth in range(1, budget + 1):
                frontier = [w for w in {reduce(x + y + x) for y in frontier for x in "ab"}
                            if w not in dist]
                dist.update((w, depth) for w in frontier)
            return dist.get(v, AtLeast(budget))

        def closed(u, v):
            if len(u) % 2 and len(v) % 2 and u[len(u) // 2] == v[len(v) // 2]:
                steps = abs(len(u) - len(v)) // 2
                return steps if steps <= budget else AtLeast(budget)
            if not len(u) % 2 and v in (u, u[::-1]):
                return int(u != v)
            return AtLeast(budget)

        for u, v in product([w.replace("e", "") for w in words], repeat=2):
            got = conj_distance(d, d.decode_payload(u or "e"), d.decode_payload(v or "e"), budget)
            assert got == brute(u, v) == closed(u, v), (u, v)

    def test_symmetry_and_triangle(self):
        d = DihedralInf()
        ball = explore_component(d, d.decode_payload("a"), radius=5)
        verts = sorted(ball.vertices, key=d.encode_payload)
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
        K = [(1, 0, 0), (1, 0, 1)]
        shells, verdict = bc_probe(h3, K, max_cayley_radius=4, diam_budget=16)
        assert all(d == 1 for _, d in shells)
        assert verdict == "Plateau(1)"

    def test_singleton_plateau_zero(self, model):
        g = random_payload(model, Random(15), max_len=3)
        _, verdict = bc_probe(model, [g], max_cayley_radius=3, diam_budget=8)
        assert verdict == "Plateau(0)"

    def test_h3semi_growing(self):
        m = get_model("h3semi")
        K = [m.decode_payload("H3(0,1,0)"), m.decode_payload("H3(1,0,0)")]
        shells, verdict = bc_probe(m, K, max_cayley_radius=4, diam_budget=16)
        assert verdict == "Growing"
        vals = [d for _, d in shells]
        assert vals == sorted(vals)

    def test_shells_monotone(self):
        d = DihedralInf()
        K = [d.decode_payload("a"), d.decode_payload("bab")]
        shells, _ = bc_probe(d, K, max_cayley_radius=5, diam_budget=16)
        vals = [x for _, x in shells]
        assert vals == sorted(vals)

    def test_empty_k_has_diameter_zero(self, h3):
        # no pair to measure: _set_diameter's 0 at every radius
        assert bc_probe(h3, [], 2, 4) == ([(0, 0), (1, 0), (2, 0)], "Plateau(0)")

    def test_json_schema(self, capsys):
        data = json.loads(cli_stdout(capsys, ["bc", "--model", "h3", "--k", "H3(1,0,0)",
                                              "--cayley-radius", "2", "--diam-budget", "8"]))
        assert set(data) == {"K", "shells", "verdict"}
        assert data["shells"] == [[0, 0], [1, 0], [2, 0]]


def h3_oracle_distance(p, q, budget):
    """rho(p, q) on h3 in closed form.  Conjugating (a, b, c) by
    (x, y, z) gives (a, b, c + x b - y a), and Ap, Ax step x, y by one, so
    rho((a, b, c), (a, b, c + delta)) = min |i| + |j| over i b - j a = delta;
    elements with another (a, b) are in another class."""
    (a, b, c), delta = p, q[2] - p[2]
    if q[:2] == (a, b):
        for s in range(budget + 1):
            for i in range(-s, s + 1):
                for j in (s - abs(i), abs(i) - s):
                    if i * b - j * a == delta:
                        return s
    return AtLeast(budget)


def _pairwise_shells(model, K, radius, diam_budget, node_budget):
    """bc_probe's shells recomputed from pairwise conj_distance calls on the
    conjugates of the payloads K."""
    K = sorted(set(K), key=model.encode_payload)
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


class TestBCOracle:
    @pytest.mark.parametrize("K", [
        [(1, 0, 0), (1, 0, 1)],
        [(1, 2, 0), (1, 2, 3), (1, 2, -5)],
        [(2, 4, 0), (2, 4, 2), (2, 4, 6)],
        [(2, 4, 0), (2, 4, 1)],
        [(1, 1, 0), (0, 1, 0)],
        [(0, 0, 1), (0, 0, 1)],
    ])
    def test_h3_shells_match_closed_form(self, h3, K):
        # the shells recomputed from the closed-form conjugation action and
        # the closed-form distance, without any search
        radius, budget = 3, 6
        shells, _ = bc_probe(h3, K, radius, budget)
        K = sorted(set(K), key=h3.encode_payload)
        dists = [0]
        want = []
        for r in range(radius + 1):
            for g, rg in h3.cayley_ball(radius).items():
                x, y, _ = g
                images = [(a, b, c + x * b - y * a) for a, b, c in K]
                if rg == r:
                    dists += [h3_oracle_distance(p, q, budget)
                              for p, q in combinations(images, 2)]
            bounds = [d.bound if isinstance(d, AtLeast) else d for d in dists]
            lower = any(isinstance(d, AtLeast) for d in dists)
            want.append((r, AtLeast(max(bounds)) if lower else max(bounds)))
        assert shells == want


class TestBCBudget:
    def test_spent_cayley_budget_raises_as_cayley_ball_does(self, h3, capsys):
        # the second K is apart and its distance searches fit 10 nodes, but
        # 1 + 6 + 36 + 216 > 10, so the ball is built and spends its budget
        for words, diam_budget in ((["H3(1,0,0)"], 4), (["H3(1,0,0)", "H3(0,1,0)"], 0)):
            K = [h3.decode_payload(w) for w in words]
            with pytest.raises(ResourceBudgetError,
                               match="^cayley_ball node budget 10 exceeded$") as exc:
                bc_probe(h3, K, 3, diam_budget, node_budget=10)
            assert exc.value.partial_count == 11
            argv = [a for w in words for a in ("--k", w)]
            assert main(["bc", "--model", "h3", *argv, "--cayley-radius", "3",
                         "--diam-budget", str(diam_budget), "--budget-nodes", "10"]) == 3
            assert capsys.readouterr().err == ("resource budget exceeded: cayley_ball node"
                                               " budget 10 exceeded (partial count 11)\n")

    @pytest.mark.parametrize("node_budget", [5, 10, 40, 1000])
    def test_free2_matches_pairwise(self, node_budget):
        f2 = FreeGroup(2)
        K = [f2.decode_payload(w) for w in ("x1", "x2.x1.x2^-1", "x1.x2.x1.x2^-1.x1^-1")]
        shells, _ = bc_probe(f2, K, 1, 6, node_budget)
        assert shells == _pairwise_shells(f2, K, 1, 6, node_budget)
        if node_budget == 5:
            assert shells[-1][1] == AtLeast(2)

    @pytest.mark.parametrize("node_budget", [8, 12, 16, 1000])
    def test_dsemi_matches_pairwise(self, node_budget):
        m = get_model("dsemi")
        K = [m.decode_payload(w) for w in ("a", "b", "babab", "abababa")]
        shells, _ = bc_probe(m, K, 2, 8, node_budget)
        assert shells == _pairwise_shells(m, K, 2, 8, node_budget)
        if node_budget == 8:
            assert shells[-1][1] == AtLeast(4)


def apart_k(model, rng):
    """Three payloads, two of them in different abelian images: k and k x,
    x the first generator, whose image is not 0 in any of the models."""
    k = random_payload(model, rng, 4)
    K = [k, model.mul_payload(k, model.gen_triples[0][1]), random_payload(model, rng, 4)]
    assert graph._apart(model, K)
    return K


def refuse(*args):
    raise AssertionError("an apart K is settled without a conjugate, a search or a Cayley ball")


class TestBCApart:
    @pytest.mark.parametrize("name", CORPUS_MODELS)
    def test_an_apart_k_takes_no_conjugate(self, name, monkeypatch):
        # every radius and diameter budget here fits the default node budget
        model = get_model(name)
        K = apart_k(model, Random(45))
        monkeypatch.setattr(graph, "conj_distance", refuse)
        monkeypatch.setattr(model, "conj_step", refuse)
        monkeypatch.setattr(model, "cayley_ball", refuse)
        for radius, budget in ((0, 0), (1, 4), (3, 2)):
            shells, verdict = bc_probe(model, K, radius, budget)
            assert shells == [(r, AtLeast(budget)) for r in range(radius + 1)]
            assert verdict == "Inconclusive"


@pytest.mark.parametrize("name", ["h3", "free2", "dinf", "dsemi", "h3semi", "h3*dinf"])
def test_the_shells_read_each_radius_from_the_ball(name, monkeypatch):
    # the first generator and two of its conjugates: one abelian image, never apart
    model = get_model(name)
    x = model.gen_triples[0][1]
    conjugates = dict.fromkeys(model.conj_step(x, g, gi) for _, g, gi in model.gen_triples)
    K = [x, *[c for c in conjugates if c != x][:2]]
    assert graph._levels_fit(len(model.gen_triples), 3, graph.DEFAULT_NODE_BUDGET)
    assert not graph._apart(model, K)
    want = bc_probe(model, K, 3, 3)
    ball = model.cayley_ball
    monkeypatch.setattr(model, "cayley_ball", lambda *args: dict(reversed(ball(*args).items())))
    assert bc_probe(model, K, 3, 3) == want


@st.composite
def bc_inputs(draw):
    """(model, K, Cayley radius, diameter budget, node budget): K of one to
    four payloads, with duplicates, conjugates (the same abelian image) and
    products by a generator (another image, unless the generator's is 0);
    node budgets on both sides of the distance searches' bound."""
    model = get_model(draw(st.sampled_from(CORPUS_MODELS)))
    rng = Random(draw(st.integers(0, 2**32)))
    K = [random_payload(model, rng, 3)]
    for _ in range(draw(st.integers(0, 3))):
        k = rng.choice(K)
        _, x, xi = rng.choice(model.gen_triples)
        K.append(draw(st.sampled_from([k, random_payload(model, rng, 3),
                                       model.conj_step(k, x, xi), model.mul_payload(k, x)])))
    node_budget = draw(st.one_of(st.integers(1, 200), st.integers(1, 10**6)))
    return model, K, draw(st.integers(0, 3)), draw(st.integers(0, 4)), node_budget


def bc_outcome(model, K, radius, diam_budget, node_budget):
    try:
        return bc_probe(model, K, radius, diam_budget, node_budget)
    except ResourceBudgetError as exc:
        return str(exc), exc.partial_count


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bc_inputs())
def test_an_apart_k_prints_what_every_conjugate_would(case):
    got = bc_outcome(*case)
    with mock.patch.object(graph, "_apart", lambda *args: False):
        assert got == bc_outcome(*case)


class TestDot:
    def test_single_vertex(self, h3):
        ball = explore_component(h3, h3.identity_payload(), radius=2)
        dot = "".join(export_dot(ball, suppress_loops=True))
        assert dot.count("->") == 0
        assert '"H3(0,0,0)";' in dot

    def test_central_path_edges(self, h3):
        ball = explore_component(h3, (1, 0, 0), radius=2)
        dot = "".join(export_dot(ball, suppress_loops=True))
        # 5 nodes, Ax edges shifting k downward plus their reverses
        assert dot.count(";") == 5 + 8
        assert '"H3(1,0,0)" -> "H3(1,0,-1)" [label="Ax"];' in dot
        assert '"H3(1,0,-1)" -> "H3(1,0,0)" [label="Ax^-1"];' in dot

    def test_deterministic(self):
        m = get_model("dsemi")
        b1 = explore_component(m, m.decode_payload("a"), radius=2)
        b2 = explore_component(m, m.decode_payload("a"), radius=2)
        assert "".join(export_dot(b1)) == "".join(export_dot(b2))

    def test_dsemi_ladder_rungs(self):
        m = get_model("dsemi")
        ball = explore_component(m, m.decode_payload("a"), radius=2)
        dot = "".join(export_dot(ball, suppress_loops=True))
        # rungs of the ladder carry the label c
        assert '"a" -> "b" [label="c"];' in dot


# ---------------------------------------------------------------------------
# The CLI against the conftest oracles, byte for byte


ORACLE_MODELS = ["h3", "free2", "dinf", "dsemi", "h3semi", "h3*dinf", "h3*dinf*free2"]
# a base with an infinite class in each model, so a node budget can cut its ball
INFINITE_BASES = ["H3(1,2,3)", "x1.x2", "aba", "ab;c", "H3(-1,2,-2);c", "(H3(1,0,0)|ab)",
                  "(H3(0,1,0)|(a|x1))"]


def cli_stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def some_element(name, seed, max_len=3):
    model = get_model(name)
    return model.encode_payload(random_payload(model, Random(seed), max_len=max_len))


class TestRenderingOracle:
    @pytest.mark.parametrize("name, base", zip(ORACLE_MODELS, INFINITE_BASES))
    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize("loops", [[], ["--suppress-loops"]])
    @pytest.mark.parametrize("radius, budget", [(3, []), (6, ["--budget-nodes", "5"])])
    def test_graph_matches_oracle(self, capsys, name, base, fmt, loops, radius, budget):
        argv = ["graph", "--model", name, "--base", base, "--radius", str(radius),
                "--format", fmt, *loops, *budget]
        out = cli_stdout(capsys, argv)
        assert out == oracle_stdout(argv)
        if budget and fmt == "json":  # the ball is cut by the node budget
            assert json.loads(out)["complete"] is False

    def test_identity_ball_matches_oracle(self, capsys):
        argv = ["graph", "--model", "h3*dinf*free2", "--base", "(e|(e|e))",
                "--radius", "2", "--suppress-loops"]
        assert cli_stdout(capsys, argv) == oracle_stdout(argv)

    @pytest.mark.parametrize("name", ORACLE_MODELS)
    def test_bc_matches_oracle(self, capsys, name):
        argv = ["bc", "--model", name, "--cayley-radius", "2", "--diam-budget", "4"]
        for seed in range(3):
            argv += ["--k", some_element(name, 30 + seed, max_len=2)]
        assert cli_stdout(capsys, argv) == oracle_stdout(argv)

    @pytest.mark.parametrize("argv", [
        ["bc", "--model", "free2", "--k", "x1", "--k", "x2.x1.x2^-1",
         "--k", "x1.x2.x1.x2^-1.x1^-1", "--cayley-radius", "1", "--diam-budget", "6",
         "--budget-nodes", "5"],
        ["bc", "--model", "dsemi", "--k", "a", "--k", "b", "--k", "babab",
         "--k", "abababa", "--cayley-radius", "2", "--diam-budget", "8",
         "--budget-nodes", "8"],
        ["bc", "--model", "h3", "--k", "H3(1,0,0)", "--k", "H3(0,1,0)",
         "--cayley-radius", "2", "--diam-budget", "3"],
    ])
    def test_atleast_diameters_match_oracle(self, capsys, argv):
        out = cli_stdout(capsys, argv)
        assert out == oracle_stdout(argv)
        assert json.loads(out)["shells"][-1][1].startswith("≥")


# ---------------------------------------------------------------------------
# Work counts: how often `graph` encodes and `bc` wraps


def test_graph_encodes_each_vertex_once(capsys, monkeypatch):
    encode = SwapExtension.encode_payload
    calls = []

    def counted(self, p):
        calls.append(p)
        return encode(self, p)

    monkeypatch.setattr(SwapExtension, "encode_payload", counted)
    out = cli_stdout(capsys, ["graph", "--model", "h3semi", "--base", "H3(-1,2,-2);c",
                              "--radius", "6", "--format", "json"])
    assert len(calls) == len(json.loads(out)["vertices"])


def test_bc_wraps_no_conjugate(capsys):
    # K, the ball, the conjugates and the pairs are payloads throughout;
    # there is no element type left to wrap them in
    K = ["x1", "x2.x1.x2^-1", "x1.x2"]
    cli_stdout(capsys, ["bc", "--model", "free2", *(a for k in K for a in ("--k", k)),
                        "--cayley-radius", "3", "--diam-budget", "4"])


@pytest.mark.parametrize("fmt, bound", [("json", 4e6), ("dot", 3e6)])
def test_graph_memory_does_not_grow_with_its_output(fmt, bound):
    # a 5000-node free2 ball prints about 2.5 MB of JSON or 1.9 MB of DOT;
    # its edges are stepped while they are written, and no document-sized
    # string is built (which peaked at 11.8 MB in JSON, 8.2 MB in DOT)
    argv = ["graph", "--model", "free2", "--base", "x1", "--radius", "40",
            "--budget-nodes", "5000", "--format", fmt]
    assert traced_peak(argv) < bound
