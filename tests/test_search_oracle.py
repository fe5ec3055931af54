"""The two-way distance search against a plain one-way BFS oracle.

The oracle walks payloads one product at a time (`conjugate`, `multiply`)
and knows nothing of frontiers or budgets, so it checks
`conj_distance` and word length (the goal search from the identity along
`right_step`) independently on all six models.
`GroupModel.search` is also pinned to the two kernels it replaced.  The
free-group conjugator length, which `conj_distance` answers without a
search, is checked against both searches, and past any budget against
a conjugator rebuilt from it.
"""

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab import AtLeast, conj_distance, get_model
from conjlab.groups import DirectProduct

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


# -- the free-group conjugator length ---------------------------------------

FREE = [get_model(name) for name in ("free1", "free2", "free3", "free2*free1")]


def power(model, p, k):
    out = model.identity_payload()
    for _ in range(k):
        out = model.mul_payload(out, p)
    return out


@st.composite
def free_pairs(draw):
    """(model, u, v, budget): u the identity, a short word or a conjugate
    of a proper power; v a conjugate of u by a word of up to 5 letters, or
    an unrelated word."""
    model = draw(st.sampled_from(FREE))
    u = power(model, word(model, draw(letters)), draw(st.integers(1, 3)))
    u = model.conjugate(word(model, draw(st.lists(st.integers(0, 63), max_size=4))), u)
    g = word(model, draw(st.lists(st.integers(0, 63), max_size=5)))
    v = model.conjugate(g, u) if draw(st.booleans()) else word(model, draw(letters))
    return model, u, v, draw(st.integers(0, 8))


def free_conjugators(model, u, v):
    """Every conjugator g with g u g^-1 = v and |m| <= 2 (|L| + |R|) / |r| + 1
    in g = L r^m R (`FreeGroup.conjugator_length`), by rotating u's
    cyclically reduced core in every way that gives v's."""
    inv, mul = model.inv_payload, model.mul_payload

    def split(p):
        w = ()
        while len(p) > 1 and p[0] == inv(p[-1:])[0]:
            w, p = w + p[:1], p[1:-1]
        return w, p

    (w, uc), (z, vc) = split(u), split(v)
    if not (uc and vc):
        return [z] if uc == vc else []
    n = len(uc)
    root = uc[:next(k for k in range(1, n + 1) if n % k == 0 and uc[k:] + uc[:k] == uc)]
    out = []
    for i in (i for i in range(n) if len(vc) == n and uc[i:] + uc[:i] == vc):
        left, right = mul(z, inv(uc[:i])), inv(w)
        bound = 2 * (len(left) + len(right)) // len(root) + 1
        out += [mul(mul(left, power(model, root if m > 0 else inv(root), abs(m))), right)
                for m in range(-bound, bound + 1)]
    return out


def certified(model, u, v):
    """The least length of a `free_conjugators` conjugator, each checked to
    conjugate u to v, math.inf when there is none; on a product, the sum
    over the factors."""
    if isinstance(model, DirectProduct):
        return certified(model.left, u[0], v[0]) + certified(model.right, u[1], v[1])
    best = math.inf
    for g in free_conjugators(model, u, v):
        assert model.conjugate(g, u) == v
        best = min(best, len(g))
    return best


def reduced_word(model, rng, length):
    """A random reduced word of `length` letters in each free factor."""
    if isinstance(model, DirectProduct):
        return (reduced_word(model.left, rng, length), reduced_word(model.right, rng, length))
    out = ()
    while len(out) < length:
        letter = (rng.randrange(model.rank), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out += (letter,)
    return out


@pytest.mark.parametrize("model", FREE, ids=lambda m: m.name)
def test_free_conjugator_length_is_certified_past_any_budget(model):
    # conjugators of 8-14 letters put most distances past any search budget;
    # one pair in four conjugates a different power of the same root
    rng = random.Random(model.name)
    past = 0
    for _ in range(150):
        root = reduced_word(model, rng, rng.randint(1, 4))
        h = reduced_word(model, rng, rng.randint(0, 6))
        u = model.conjugate(h, power(model, root, rng.randint(1, 3)))
        other = u if rng.random() < 0.75 else power(model, root, rng.randint(1, 3))
        v = model.conjugate(reduced_word(model, rng, rng.randint(8, 14)), other)
        rho = model.conjugator_length(u, v)
        assert rho == certified(model, u, v) == model.conjugator_length(v, u)
        past += 8 < rho < math.inf
    assert past >= (0 if model.name == "free1" else 60)


@pytest.mark.parametrize("text, other, rho", [
    ("e", "e", 0),
    ("e", "x1", math.inf),
    ("x1.x2.x1.x2.x1.x2", "x2.x1.x2.x1.x2.x1", 1),  # (x1.x2)^3 and (x2.x1)^3
    ("x1.x2.x1.x2.x1.x2", "x1.x2", math.inf),  # a power of it
    ("x1.x2.x1.x2.x1.x2", "x1^-1.x2^-1.x1^-1.x2^-1.x1^-1.x2^-1", math.inf),
    ("x1.x2.x1^-1.x2^-1", "x2.x1.x2^-1.x1^-1", math.inf),  # [x1,x2] and its inverse
    ("x1.x2.x1^-1.x2^-1", "x2^-1.x1.x2.x1^-1", 1),
    ("x1.x2.x1^-1.x2^-1", "x1^-1.x2^-1.x1.x2", 2),
    ("x3.x1.x1.x3^-1", "x2^-1.x1.x1.x2", 2),  # across the root x1
    ("x3^-1.x1.x3^-1.x1.x3", "x2.x1.x2^-1.x1^-1.x3^-1.x1.x3^-1.x1.x3.x1.x2.x1^-1.x2^-1", 4),
])
def test_free_conjugator_length_examples(text, other, rho):
    model = get_model("free3")
    u, v = model.decode_payload(text), model.decode_payload(other)
    assert model.conjugator_length(u, v) == rho == certified(model, u, v)
    assert model.conjugator_length(v, u) == rho
