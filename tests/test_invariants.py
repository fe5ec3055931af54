"""The conjugacy-class invariants of the models against the conjugation graph.

`conjugator_length` must answer at most 1 along every conjugation edge,
and `class_is_finite` must agree with a budgeted BFS oracle, on Cayley
balls of all six models and of a 3-factor product.  `conj_distance`
answers pairs that `conjugator_length` knows, non-conjugate ones
included, without a search only where the search could answer nothing
else.  On h3 every inner automorphism keeps the conjugation graph, labels
included, so distances and balls do not change under it.
"""

import json
import math
from random import Random

import pytest

from conjlab import (
    AtLeast,
    conj_distance,
    conj_neighbors,
    explore_component,
    get_model,
)
from conjlab.cli import main
from conjlab.graph import _levels_fit
from conjlab.groups import random_payload

from conftest import all_models

MODELS = all_models() + [get_model("free1"), get_model("dsemi*h3semi*free2")]
IDS = [m.name for m in MODELS]


def component_is_finite(model, g, node_budget=4096) -> bool:
    """The BFS oracle: whether the conjugation component of g is complete
    and closed within `node_budget` nodes."""
    ball = explore_component(model, g, radius=node_budget, node_budget=node_budget)
    return ball.complete and ball.closed


def ball(model):
    return sorted(model.cayley_ball(2), key=model.encode_payload)


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_conjugator_length_is_at_most_1_along_conjugation_edges(model):
    for g in ball(model):
        for _, h in conj_neighbors(model, g):
            rho = model.conjugator_length(g, h)
            assert rho != math.inf and (rho is None or rho <= 1), (g, h)


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_class_is_finite_matches_the_bfs_oracle(model):
    # the finite classes met here have at most 4 elements, far inside
    # the oracle's budget; a smaller budget keeps the infinite ones cheap
    for g in ball(model):
        assert model.class_is_finite(g) == component_is_finite(model, g, 256), g


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_non_conjugate_distance_is_the_search_answer(model):
    # with node budget 10^6 the shortcut fires for every budget here; with
    # 1, 5 or 40 nodes the search runs and may be cut below the budget
    elems = ball(model)[:12]
    cut = False
    for u in elems:
        for v in elems:
            if model.conjugator_length(u, v) != math.inf:
                continue
            for budget in (0, 1, 2, 3):
                for node_budget in (1, 5, 40, 10**6):
                    want = model.search(u, model.conj_step, budget, node_budget, v).length
                    assert conj_distance(model, u, v, budget, node_budget) == want
                    cut |= want != AtLeast(budget)
    # in the abelian free1 every class is a point: a search ends at once
    assert cut or model.name == "free1"


def no_search(*args):
    raise AssertionError("searched")


def test_shortcut_runs_no_search(h3, monkeypatch):
    u, v = (1, 0, 0), (0, 1, 0)
    # each class is a line, and each side of a search adds 2 nodes a level:
    # depths 1 + 1 read 5 nodes, and the next level is cut at depths 2 + 1
    assert conj_distance(h3, u, v, budget=2, node_budget=5) == AtLeast(2)
    assert conj_distance(h3, u, v, budget=4, node_budget=5) == AtLeast(3)

    monkeypatch.setattr(h3, "search", no_search)
    # 1 + 6 + 36 + 216 <= 10^6 nodes
    assert conj_distance(h3, u, v, budget=3) == AtLeast(3)
    with pytest.raises(AssertionError):
        conj_distance(h3, u, v, budget=3, node_budget=258)
    with pytest.raises(AssertionError):  # conjugate pairs are searched
        conj_distance(h3, u, (1, 0, 1), budget=3)


@pytest.mark.parametrize("name", ["free2", "free2*free1"])
def test_formula_runs_no_search(name, monkeypatch):
    model = get_model(name)
    elems = ball(model)[:12]
    conjugators = sorted(model.cayley_ball(4), key=model.encode_payload)[::7]
    pairs = [(u, model.conjugate(g, u)) for u in elems for g in conjugators] + [
        (u, v) for u in elems for v in elems]
    want = {(u, v, b): model.search(u, model.conj_step, b, 10**6, v).length
            for u, v in pairs for b in (0, 1, 3, 4)}
    assert {d for d in want.values() if isinstance(d, int)} == {0, 1, 2, 3, 4}
    monkeypatch.setattr(model, "search", no_search)
    for (u, v, b), d in want.items():  # 1 + 6 + ... + 6^4 <= 10^6 nodes
        assert conj_distance(model, u, v, b) == d


@pytest.mark.parametrize("name", ["free2", "free2*free1"])
def test_formula_past_the_gate_is_the_search_answer(name, monkeypatch):
    model = get_model(name)
    elems = ball(model)[:10]
    pairs = [(u, model.conjugate(g, u)) for u in elems for g in elems] + [
        (u, v) for u in elems for v in elems]
    cut = False
    for u, v in pairs:
        for b, node_budget in ((2, 5), (4, 5), (10, 10**6)):  # 4^10 > 10^6
            assert not _levels_fit(len(model.gen_triples), b, node_budget)
            want = model.search(u, model.conj_step, b, node_budget, v).length
            assert conj_distance(model, u, v, b, node_budget) == want
            cut |= isinstance(want, AtLeast) and want.bound < b
    assert cut  # some answers are partial: AtLeast(b) below the budget
    monkeypatch.setattr(model, "search", no_search)
    u = model.decode_payload("x1" if name == "free2" else "(x1|e)")
    with pytest.raises(AssertionError):
        conj_distance(model, u, u, 10)
    with pytest.raises(AssertionError):
        conj_distance(model, u, u, 4, node_budget=5)


@pytest.mark.parametrize("name, u, g", [
    ("h3", "H3(1,0,0)", "H3(0,1,0)"),
    ("dinf", "a", "b"),
    ("h3*dinf", "(H3(1,0,0)|a)", "(H3(0,1,0)|e)"),
    ("dinf*free2", "(a|x1)", "(e|x2)"),
])
def test_models_without_a_formula_search_conjugate_pairs(name, u, g, monkeypatch):
    model = get_model(name)
    u, g = model.decode_payload(u), model.decode_payload(g)
    v = model.conjugate(g, u)
    assert conj_distance(model, u, v, 3) == 1
    monkeypatch.setattr(model, "search", no_search)
    with pytest.raises(AssertionError):
        conj_distance(model, u, v, 3)


def test_a_product_is_apart_when_one_factor_is(monkeypatch):
    # one image, and a conjugate dinf part (b ab b = ba), but [x1, x2] is
    # not conjugate to its inverse [x2, x1] in free2
    model = get_model("dinf*free2")
    u = model.decode_payload("(ab|x1.x2.x1^-1.x2^-1)")
    v = model.decode_payload("(ba|x2.x1.x2^-1.x1^-1)")
    assert model.left.conjugator_length(u[0], v[0]) is None
    assert model.conjugator_length(u, v) == math.inf
    monkeypatch.setattr(model, "search", no_search)
    assert conj_distance(model, u, v, 3) == AtLeast(3)


def test_formula_answers_as_a_search_at_a_negative_budget():
    model = get_model("free2")
    u, v = model.decode_payload("x1"), model.decode_payload("x2.x1.x2^-1")
    for p, q in ((u, u), (u, v)):
        assert conj_distance(model, p, q, -1) == model.search(
            p, model.conj_step, -1, 10**6, q).length
    assert conj_distance(model, u, u, -1) == 0


@pytest.mark.parametrize("n, depth, node_budget, fits", [
    (2, 3, 15, True),  # 1 + 2 + 4 + 8
    (2, 3, 14, False),
    (6, 0, 1, True),
    (6, 0, 0, False),
    (6, 10**9, 10**6, False),  # stops after 8 levels, never forms 6^(10^9)
])
def test_levels_fit(n, depth, node_budget, fits):
    assert _levels_fit(n, depth, node_budget) is fits


def inner(model, g):
    """Ad_g, the payload map p -> g p g^-1."""
    gi = model.inv_payload(g)
    return lambda p: model.conj_step(p, g, gi)


# g x g^-1 = x z, z central, for every g and generator x of h3, so each
# Ad_g maps the conjugation graph onto itself and keeps every label


def test_inner_automorphisms_keep_h3_conjugation_distances(h3):
    # with 6 steps a node, 2 and 5 nodes fit depth 0, 40 depth 1 and 10^6
    # depth 4, so each budget has answers from the formula and the search;
    # a class is a line, and 2 or 5 nodes cut some searches below it
    rng = Random(29)
    pairs = []
    for _ in range(12):
        u = random_payload(h3, rng, 4)
        v = rng.choice([inner(h3, random_payload(h3, rng, 3))(u),
                        h3.mul_payload(u, (0, 0, rng.randint(-3, 3))),
                        random_payload(h3, rng, 4)])
        pairs.append((u, v))
    answers = set()
    for g in h3.cayley_ball(2):
        ad = inner(h3, g)
        for u, v in pairs:
            for budget in range(5):
                for node_budget in (2, 5, 40, 10**6):
                    want = conj_distance(h3, u, v, budget, node_budget)
                    assert conj_distance(h3, ad(u), ad(v), budget, node_budget) == want
                    answers.add((type(want), isinstance(want, AtLeast) and want.bound < budget))
    assert answers == {(int, False), (AtLeast, False), (AtLeast, True)}


def test_inner_automorphisms_map_h3_conjugation_balls(h3):
    rng = Random(29)
    centres = [random_payload(h3, rng, 4) for _ in range(6)] + [(0, 0, 2)]
    flags = set()
    for g in h3.cayley_ball(2):
        ad = inner(h3, g)
        for u in centres:
            for radius, node_budget in ((0, 5), (2, 5), (3, 5), (3, 40)):
                ball = explore_component(h3, u, radius, node_budget)
                image = explore_component(h3, ad(u), radius, node_budget)
                assert list(image.depths.items()) == [(ad(p), d) for p, d in ball.depths.items()]
                assert (image.complete, image.closed) == (ball.complete, ball.closed)
                flags.add((ball.complete, ball.closed))
    assert flags == {(True, False), (False, False), (True, True)}


def test_limit_refuses_a_finite_class_of_8192_elements(tmp_path, capsys):
    # (ab) in each of 13 dinf factors: a class of 2^13 elements, which a
    # 4096-node search took for infinite
    model = get_model("*".join(["dinf"] * 13))
    enc = "(ab|" * 12 + "ab" + ")" * 12
    assert model.class_is_finite(model.decode_payload(enc))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"model": model.name, "table": [[enc, "1"]]}))
    code = main(["limit", "--potential", str(path), "--conjugator", "e"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (f"error: potential support element {enc} lies in a finite "
                   "conjugation component\n")
