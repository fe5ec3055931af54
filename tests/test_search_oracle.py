"""The two-way distance search against a plain one-way BFS oracle.

The oracle walks payloads one product at a time (`conjugate`, `multiply`)
and knows nothing of frontiers or budgets, so it checks
`conj_distance` and word length (the goal search from the identity along
`right_step`) independently on all six models.
`GroupModel.search` is also pinned to the two kernels it replaced.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab import AtLeast, conj_distance, get_model

from conftest import all_models, reference_bfs, reference_distance, word_search

MODELS = all_models()
RADIUS = 4


def one_way(start, step, gens, radius):
    """Depth of every element within `radius` of start along step(v, x)
    over `gens`: a plain one-way BFS."""
    dist, frontier = {start: 0}, [start]
    for depth in range(1, radius + 1):
        frontier = [w for w in dict.fromkeys(step(v, x) for v in frontier for x in gens)
                    if w not in dist]
        dist.update((w, depth) for w in frontier)
    return dist


@lru_cache(maxsize=None)
def generators(model):
    return [x for _, x, _ in model.gen_triples]


def conj_oracle(model, u, v, radius):
    """rho(u, v) when it is <= radius, else None."""
    return one_way(u, lambda h, x: model.conjugate(x, h), generators(model), radius).get(v)


@lru_cache(maxsize=None)
def cayley_lengths(model):
    """Word length of every element of length <= RADIUS."""
    return one_way(model.identity_payload(), model.multiply, generators(model), RADIUS)


def word(model, indices):
    gens = generators(model)
    out = model.identity_payload()
    for i in indices:
        out = model.multiply(out, gens[i % len(gens)])
    return out


letters = st.lists(st.integers(0, 63), max_size=3)


@st.composite
def pairs(draw):
    """(model, u, v, radius): v is a conjugate of u by a short word, or an
    unrelated element."""
    model = draw(st.sampled_from(MODELS))
    u = word(model, draw(letters))
    v = word(model, draw(letters))
    if draw(st.booleans()):
        v = model.conjugate(v, u)
    return model, u, v, draw(st.integers(0, RADIUS))


def expected(found, radius):
    """What a search to depth `radius` answers for an oracle distance."""
    return AtLeast(radius) if found is None or found > radius else found


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pairs())
def test_conj_distance_matches_one_way(case):
    model, u, v, radius = case
    want = expected(conj_oracle(model, u, v, radius), radius)
    assert conj_distance(model, u, v, radius) == want
    assert conj_distance(model, v, u, radius) == want


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pairs())
def test_word_length_matches_one_way(case):
    model, u, _, radius = case
    want = expected(cayley_lengths(model).get(u), radius)
    assert word_search(model, u, radius).length == want


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pairs(), st.integers(1, 40))
def test_node_budget_gives_a_lower_bound(case, node_budget):
    # a cut answers AtLeast(b) with b the shortest length not ruled out:
    # the true distance is at least b, and an int answer is exact
    model, u, v, radius = case
    true = conj_oracle(model, u, v, radius)
    got = conj_distance(model, u, v, radius, node_budget)
    if isinstance(got, AtLeast):
        assert got.bound <= radius
        assert true is None or true >= got.bound
    else:
        assert got == true


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pairs(), st.integers(1, 40))
def test_word_length_raises_or_is_exact(case, node_budget):
    model, u, _, radius = case
    want = expected(cayley_lengths(model).get(u), radius)
    found = word_search(model, u, radius, node_budget)
    if found.cut is not None:
        assert found.cut == node_budget + 1
    else:
        assert found.length == want


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_oracle_ball_is_cayley_ball(model):
    # the oracle's own sanity: its radius-RADIUS ball is the library's
    assert cayley_lengths(model) == model.cayley_ball(RADIUS)


@st.composite
def searches(draw):
    """(model, step, start, goal or None, radius, node_budget) over the six
    models and a 3-factor product."""
    model = draw(st.sampled_from(MODELS + [get_model("dsemi*h3semi*free2")]))
    step = draw(st.sampled_from([model.conj_step, model.right_step]))
    start = word(model, draw(letters))
    goal = draw(st.none() | letters.map(lambda w: word(model, w)))
    node_budget = draw(st.integers(1, 40) | st.just(10**6))
    return model, step, start, goal, draw(st.integers(0, RADIUS)), node_budget


@settings(max_examples=300, derandomize=True, deadline=None)
@given(searches())
def test_search_matches_the_kernels_it_replaced(case):
    model, step, start, goal, radius, node_budget = case
    found = model.search(start, step, radius, node_budget, goal)
    if goal is None:
        dist, cut, exhausted = reference_bfs(model, start, step, radius, node_budget)
        assert list(found.dist.items()) == list(dist.items())
        assert found.exhausted == exhausted
        assert found.cut == (None if cut is None else len(dist))
    else:
        assert (found.length, found.cut) == reference_distance(
            model, start, goal, step, radius, node_budget)
