import itertools
import re
from functools import reduce
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conjlab import (
    AtLeast,
    DihedralInf,
    DirectProduct,
    FreeGroup,
    GroupModel,
    Heisenberg,
    ResourceBudgetError,
    UsageError,
    get_model,
    parse_word,
)
from conjlab.sampling import random_payload

from conftest import all_models, mat_inv, mat_mul, mat_of, triple_of, word_search


def fold(model, labels):
    """The product of the generators with these `gen_triples` labels."""
    letters = {label: x for label, x, _ in model.gen_triples}
    return reduce(model.mul_payload, [letters[label] for label in labels],
                  model.identity_payload())


# ---------------------------------------------------------------------------
# Heisenberg group vs the matrix oracle


class TestHeisenberg:
    def test_commutator_relation(self, h3):
        mul = h3.mul_payload
        Ap = h3.decode_payload("H3(1,0,0)")
        Ax = h3.decode_payload("H3(0,1,0)")
        A1 = h3.decode_payload("H3(0,0,1)")
        assert mul(Ap, Ax) == mul(mul(Ax, Ap), A1)

    def test_matrix_oracle_random(self, h3):
        rng = Random(1)
        for _ in range(500):
            p1 = tuple(rng.randint(-3, 3) for _ in range(3))
            p2 = tuple(rng.randint(-3, 3) for _ in range(3))
            want = triple_of(mat_mul(mat_of(p1), mat_of(p2)))
            assert h3.mul_payload(p1, p2) == want
            assert h3.multiply(p1, p2) == want
            assert h3.inv_payload(p1) == triple_of(mat_inv(mat_of(p1)))

    def test_conjugate_matches_matrices(self, h3):
        rng = Random(2)
        for _ in range(200):
            pg = tuple(rng.randint(-3, 3) for _ in range(3))
            ph = tuple(rng.randint(-3, 3) for _ in range(3))
            got = h3.conjugate(pg, ph)
            want = triple_of(
                mat_mul(mat_mul(mat_of(pg), mat_of(ph)), mat_inv(mat_of(pg)))
            )
            assert got == want

    def test_central_shift_conjugation_rule(self, h3):
        # Ax (Ap A1^k) Ax^-1 = Ap A1^(k-1)
        Ax = (0, 1, 0)
        for k in range(-4, 5):
            assert h3.conjugate(Ax, (1, 0, k)) == (1, 0, k - 1)

    def test_word_length_of_central_generator(self, h3):
        # A1 is itself a generator here, so its geodesic length is 1
        n = word_search(h3, (0, 0, 1), 4).length
        assert n == 1
        assert word_search(h3, h3.identity_payload(), 4).length == 0

    def test_word_length_budget_sentinel(self, h3):
        far = (0, 9, 0)
        assert word_search(h3, far, 3).length == AtLeast(3)

    def test_node_budget_raises(self, h3):
        # 7 nodes fill radius 1; the 11th node crosses a budget of 10.
        # The goal search grows from both ends: the identity and its 6
        # neighbours, then the target's side (the smaller frontier), whose
        # 4th node, (-1, 9, 0), is the 11th and crosses the budget
        with pytest.raises(ResourceBudgetError, match="^cayley_ball node budget 10 exceeded$") as exc:
            h3.cayley_ball(3, node_budget=10)
        assert exc.value.partial_count == 11
        far = (0, 9, 0)
        assert word_search(h3, far, 5, node_budget=10).cut == 11
        # a meet is checked before the budget: the target (0, 1, 1) reaches
        # A1, on the identity's side, with its 2nd neighbour (0, 0, 1)
        eleventh = list(h3.cayley_ball(2))[10]
        found = word_search(h3, eleventh, 5, node_budget=10)
        assert (found.length, found.cut) == (2, None)


# ---------------------------------------------------------------------------
# Free groups

free_letters = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))


def reduce_letters(word):
    """Free reduction, one letter at a time."""
    out = []
    for i, s in word:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


class TestFree:
    def test_free_reduction(self):
        f2 = FreeGroup(2)
        assert parse_word(f2, "x1.x1^-1.x2") == f2.decode_payload("x2")

    def test_word_length_reduced(self):
        f2 = FreeGroup(2)
        g = parse_word(f2, "x1.x2.x1^-1")
        assert word_search(f2, g, 5).length == 3

    def test_ball_radius_one(self):
        f2 = FreeGroup(2)
        assert len(f2.cayley_ball(1)) == 5

    def test_rejects_unreduced_encoding(self):
        f2 = FreeGroup(2)
        with pytest.raises(UsageError):
            f2.decode_payload("x1.x1^-1")

    @pytest.mark.parametrize("text", ["x1.x1^-1", "x2.x1^-1.x1.x2", "x1^-1.x2.x2^-1"])
    def test_unreduced_encoding_message(self, text):
        with pytest.raises(UsageError) as exc:
            FreeGroup(2).decode_payload(text)
        assert str(exc.value) == f"encoding {text!r} is not a reduced word"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(free_letters, max_size=8), st.lists(free_letters, max_size=8))
    def test_product_cancels_at_the_junction(self, w1, w2):
        # on reduced words, the product equals the word reduced letter by letter
        f3 = FreeGroup(3)
        p1, p2 = reduce_letters(w1), reduce_letters(w2)
        assert f3.mul_payload(p1, p2) == reduce_letters(p1 + p2)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(free_letters, min_size=1, max_size=6))
    def test_decode_accepts_exactly_the_reduced_words(self, word):
        f3 = FreeGroup(3)
        text = ".".join(f"x{i + 1}" + ("^-1" if s < 0 else "") for i, s in word)
        if reduce_letters(word) == tuple(word):
            assert f3.decode_payload(text) == tuple(word)
        else:
            with pytest.raises(UsageError, match="is not a reduced word"):
                f3.decode_payload(text)


# ---------------------------------------------------------------------------
# Dihedral-type models


class TestDihedral:
    def test_involution_relations(self):
        d = DihedralInf()
        a, b = d.decode_payload("a"), d.decode_payload("b")
        e = d.identity_payload()
        assert d.mul_payload(a, a) == e and d.mul_payload(b, b) == e

    def test_normal_form_example(self):
        d = DihedralInf()
        assert parse_word(d, "a.a.b") == d.decode_payload("b")

    def test_invert_ab_brute_force(self):
        # oracle: search the word ball for the word w with (ab) * w = e
        d = DihedralInf()
        ab = d.decode_payload("ab")
        e = d.identity_payload()
        found = None
        for length in range(0, 4):
            for letters in itertools.product("ab", repeat=length):
                w = e
                for x in letters:
                    w = d.mul_payload(w, d.decode_payload(x))
                if d.mul_payload(ab, w) == e:
                    found = w
                    break
            if found is not None:
                break
        assert found == d.decode_payload("ba")
        assert d.inv_payload(ab) == found

    def test_ball_radius_two(self):
        d = DihedralInf()
        ball = d.cayley_ball(2)
        assert set(map(d.encode_payload, ball)) == {"e", "a", "b", "ab", "ba"}

    def test_semidirect_relations(self):
        ds = get_model("dsemi")
        mul, e = ds.mul_payload, ds.identity_payload()
        a, b, c = (ds.decode_payload(s) for s in "abc")
        assert mul(a, a) == e and mul(b, b) == e and mul(c, c) == e
        assert mul(mul(c, a), c) == b

    def test_semidirect_encoding(self):
        ds = get_model("dsemi")
        c = ds.decode_payload("c")
        assert ds.encode_payload(c) == "e;c"
        assert ds.decode_payload("e;c") == c
        assert ds.encode_payload(ds.decode_payload("bac")) == "ba;c"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.text("ab", max_size=12), st.text("ab", max_size=12),
           st.integers(0, 1), st.integers(0, 1))
    def test_products_match_a_full_reduction(self, raw1, raw2, e1, e2):
        # the models cancel at the junction only; this reducer rescans the
        # whole concatenation, one letter at a time
        def reduce(w):
            out = []
            for ch in w:
                if out and out[-1] == ch:
                    out.pop()
                else:
                    out.append(ch)
            return "".join(out)

        w1, w2 = reduce(raw1), reduce(raw2)
        assert DihedralInf().mul_payload(w1, w2) == reduce(w1 + w2)
        swapped = w2.translate(str.maketrans("ab", "ba")) if e1 else w2
        assert (get_model("dsemi").mul_payload((w1, e1), (w2, e2))
                == (reduce(w1 + swapped), (e1 + e2) % 2))
        if raw1 != w1:
            with pytest.raises(UsageError, match="not an alternating word"):
                DihedralInf().decode_payload(raw1)
            with pytest.raises(UsageError, match="not an alternating word"):
                get_model("dsemi").decode_payload(raw1 + ";c")


class TestHeisenbergSemidirect:
    def test_relations(self):
        m = get_model("h3semi")
        mul = m.mul_payload
        c = m.decode_payload("c")
        Ap = m.decode_payload("H3(1,0,0)")
        Ax = m.decode_payload("H3(0,1,0)")
        A1 = m.decode_payload("H3(0,0,1)")
        assert mul(c, c) == m.identity_payload()
        assert mul(mul(c, Ap), c) == Ax
        assert mul(mul(c, Ax), c) == Ap
        assert mul(mul(c, A1), c) == m.inv_payload(A1)

    def test_conjugate_example(self):
        m = get_model("h3semi")
        c, Ax = m.decode_payload("c"), m.decode_payload("H3(0,1,0)")
        assert m.conjugate(c, Ax) == m.decode_payload("H3(1,0,0)")


# ---------------------------------------------------------------------------
# The two swap extensions dsemi, h3semi and their product, pinned byte for byte


# text -> (payload, encoding) of what decode gives, or the exact UsageError
SWAP_CODEC = {
    "dsemi": {
        "c": (("", 1), "e;c"),
        "e;c": (("", 1), "e;c"),
        "bac": (("ba", 1), "ba;c"),
        "ba;c": (("ba", 1), "ba;c"),
        "ab": (("ab", 0), "ab"),
        "H3(0,1,0);c": "bad dinf element encoding: 'H3(0,1,0)'",
        "(bac|c)": "bad dinf element encoding: '(bac|c)'",
        ";c": "bad dinf element encoding: ''",
        "cc": "bad dinf element encoding: 'c'",
        "aac": "encoding 'aa' is not an alternating word",
        "H3(1,0,0)c": "bad dinf element encoding: 'H3(1,0,0)'",
    },
    "h3semi": {
        "c": (((0, 0, 0), 1), "H3(0,0,0);c"),
        "e;c": (((0, 0, 0), 1), "H3(0,0,0);c"),
        "H3(0,1,0);c": (((0, 1, 0), 1), "H3(0,1,0);c"),
        "e": (((0, 0, 0), 0), "H3(0,0,0)"),
        "bac": "bad H3 element encoding: 'bac'",
        "ba;c": "bad H3 element encoding: 'ba'",
        "(bac|c)": "bad H3 element encoding: '(bac|c)'",
        ";c": "bad H3 element encoding: ''",
        "cc": "bad H3 element encoding: 'cc'",
        "aac": "bad H3 element encoding: 'aac'",
        "H3(1,0,0)c": "bad H3 element encoding: 'H3(1,0,0)c'",
    },
    "dsemi*h3semi": {
        "(bac|c)": ((("ba", 1), ((0, 0, 0), 1)), "(ba;c|H3(0,0,0);c)"),
        "(e;c|H3(0,1,0);c)": ((("", 1), ((0, 1, 0), 1)), "(e;c|H3(0,1,0);c)"),
        "(ba;c|e)": ((("ba", 1), ((0, 0, 0), 0)), "(ba;c|H3(0,0,0))"),
        "c": "bad product encoding: 'c'",
        "bac": "bad product encoding: 'bac'",
        "(;c|c)": "bad dinf element encoding: ''",
        "(cc|c)": "bad dinf element encoding: 'c'",
        "(aac|c)": "encoding 'aa' is not an alternating word",
        "(a|H3(1,0,0)c)": "bad H3 element encoding: 'H3(1,0,0)c'",
        "(c|;c)": "bad H3 element encoding: ''",
    },
}

SWAP_GENERATORS = {
    "dsemi": [("a", ("a", 0)), ("b", ("b", 0)), ("c", ("", 1))],
    "h3semi": [("Ax", ((0, 1, 0), 0)), ("Ap", ((1, 0, 0), 0)),
               ("A1", ((0, 0, 1), 0)), ("c", ((0, 0, 0), 1))],
}


def _swap_ab(w):
    return w.translate(str.maketrans("ab", "ba"))


def _swap_h3(t):
    a, b, c = t
    return (b, a, a * b - c)


@pytest.mark.parametrize("name", SWAP_CODEC)
def test_swap_extension_codec_is_pinned(name):
    m = get_model(name)
    for text, want in SWAP_CODEC[name].items():
        if isinstance(want, str):
            with pytest.raises(UsageError, match="^" + re.escape(want) + "$"):
                m.decode_payload(text)
        else:
            g = m.decode_payload(text)
            assert (g, m.encode_payload(g)) == want, text
            assert m.decode_payload(m.encode_payload(g)) == g


def test_swap_extension_generator_tables_are_pinned():
    for name, gens in SWAP_GENERATORS.items():
        assert list(get_model(name).generator_payloads().items()) == gens
    product = list(get_model("dsemi*h3semi").generator_payloads().items())
    assert product == (
        [("l." + gid, (p, ((0, 0, 0), 0))) for gid, p in SWAP_GENERATORS["dsemi"]]
        + [("r." + gid, (("", 0), p)) for gid, p in SWAP_GENERATORS["h3semi"]])


@pytest.mark.parametrize("name", ["dsemi", "h3semi", "dsemi*h3semi"])
def test_c_conjugation_is_the_swap(name):
    # c (t c^e) c = sigma(t) c^e, with sigma written out from the defining
    # relations: a <-> b on dinf words, (a, b, c) -> (b, a, ab - c) on H3
    m = get_model(name)
    sigma = {"dsemi": _swap_ab, "h3semi": _swap_h3}
    factors = name.split("*")
    c = m.decode_payload("c" if len(factors) == 1 else "(c|c)")
    for x in m.cayley_ball(2):
        parts = [x] if len(factors) == 1 else x
        want = tuple((sigma[f](t), e) for f, (t, e) in zip(factors, parts))
        assert m.mul_payload(m.mul_payload(c, x), c) == (want[0] if len(factors) == 1 else want)


class TestDirectProduct:
    def test_componentwise(self):
        m = DirectProduct(Heisenberg(), DihedralInf())
        g = m.decode_payload("(H3(1,0,0)|ab)")
        h = m.decode_payload("(H3(0,1,0)|b)")
        assert m.encode_payload(m.mul_payload(g, h)) == "(H3(1,1,1)|a)"

    def test_generators_embed(self):
        m = DirectProduct(Heisenberg(), DihedralInf())
        gl = parse_word(m, "l.Ap")
        gr = parse_word(m, "r.a")
        assert m.mul_payload(gl, gr) == m.mul_payload(gr, gl)

    def test_parse_word_reads_product_ids(self):
        assert parse_word(get_model("h3*dinf"), "l.Ax") == ((0, 1, 0), "")
        m = get_model("h3*dinf*free2")
        p = parse_word(m, "r.r.x1^-1.l.Ap")
        assert p == fold(m, ["r.r.x1^-1", "l.Ap"])
        assert m.encode_payload(p) == "(H3(1,0,0)|(e|x1^-1))"
        for text, gid in [("l", "l"), ("r.r", "r.r"), ("l.x1", "l.x1"),
                          ("r.l.c", "r.l.c"), ("l.Ax.r", "r")]:
            with pytest.raises(UsageError, match=re.escape(f"generator {gid!r} ")):
                parse_word(m, text)


# ---------------------------------------------------------------------------
# Cross-model algebraic laws


def test_identity_law(model):
    rng = Random(3)
    mul, e = model.mul_payload, model.identity_payload()
    for _ in range(20):
        g = random_payload(model, rng)
        assert mul(e, g) == g and mul(g, e) == g


def test_associativity_random(model):
    rng = Random(4)
    mul = model.mul_payload
    for _ in range(1000):
        a = random_payload(model, rng, max_len=4)
        b = random_payload(model, rng, max_len=4)
        c = random_payload(model, rng, max_len=4)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_inverse_laws(model):
    rng = Random(5)
    inv = model.inv_payload
    for _ in range(200):
        a = random_payload(model, rng)
        assert model.mul_payload(a, inv(a)) == model.identity_payload()
        assert inv(inv(a)) == a


def test_conjugation_inverts(model):
    rng = Random(6)
    for _ in range(200):
        g = random_payload(model, rng)
        h = random_payload(model, rng)
        assert model.conjugate(g, model.conjugate(model.inv_payload(g), h)) == h


def test_normal_form_idempotent(model):
    rng = Random(7)
    labels = [label for label, _, _ in model.gen_triples]
    for _ in range(200):
        word = [rng.choice(labels) for _ in range(rng.randint(0, 20))]
        g = parse_word(model, ".".join(word))
        # the canonical element's own encoding round-trips
        assert model.decode_payload(model.encode_payload(g)) == g
        # parsing the dotted word folds its letters' payloads
        assert fold(model, word) == g


def test_encoding_injective(model):
    ball = model.cayley_ball(3, node_budget=20000)
    encs = [model.encode_payload(g) for g in ball]
    assert len(set(encs)) == len(encs)
    for g, enc in zip(ball, encs):
        assert model.decode_payload(enc) == g


MODELS = all_models()


@st.composite
def translates(draw, models=MODELS):
    """A model, a few of its payloads and one more, each a random word's
    normal form."""
    model = draw(st.sampled_from(models))
    word = st.lists(st.sampled_from([label for label, _, _ in model.gen_triples]), max_size=8)
    payloads = [fold(model, w) for w in draw(st.lists(word, max_size=6))]
    return model, payloads, fold(model, draw(word))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(translates())
def test_mul_all_is_mul_payload_term_for_term(case):
    model, payloads, gp = case
    mul = model.mul_payload
    assert model.mul_all(payloads, gp) == [mul(s, gp) for s in payloads]
    assert model.mul_all(payloads, gp, left=True) == [mul(gp, s) for s in payloads]


triples = st.tuples(*[st.integers(-10**20, 10**20)] * 3)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(triples, max_size=6), triples)
def test_h3_mul_all_matches_the_matrix_oracle(payloads, gp):
    h3 = Heisenberg()
    g = mat_of(gp)
    assert h3.mul_all(payloads, gp) == [triple_of(mat_mul(mat_of(s), g)) for s in payloads]
    assert h3.mul_all(payloads, gp, left=True) == [
        triple_of(mat_mul(g, mat_of(s))) for s in payloads]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(triples, triples)
@example((3, -7, 10**30 + 1), (-2, 5, -(10**30) + 3))
@example((10**30, -(10**30), 10**30 - 1), (1, 1, 10**30))
def test_h3_conj_step_matches_the_matrix_oracle(p, gp):
    # an arbitrary conjugator: the closed form's c + x b - y a, against
    # g m(p) m(g)^-1 in integer matrices and the base class's two products
    h3 = Heisenberg()
    g, gi = mat_of(gp), h3.inv_payload(gp)
    want = triple_of(mat_mul(mat_mul(g, mat_of(p)), mat_inv(g)))
    assert h3.conj_step(p, gp, gi) == want == GroupModel.conj_step(h3, p, gp, gi)


# three draws from Random(7) per model, then the generator's next draw
PINNED_DRAWS = {
    "h3": (["H3(-1,-1,0)", "H3(1,3,1)", "H3(0,1,1)"], 90122),
    "free2": (["x1^-1.x2^-1", "x1.x1.x1.x2.x1", "x1.x2^-1"], 438485),
    "dinf": (["ab", "aba", "ab"], 438485),
    "dsemi": (["ab", "ba;c", "a;c"], 90122),
    "h3semi": (["H3(1,0,0);c", "H3(0,0,-1)", "H3(-1,0,0);c"], 438485),
    "h3*dinf": (["(H3(1,0,0)|a)", "(H3(0,-1,-1)|b)", "(H3(-1,2,-1)|b)"], 90122),
}


@pytest.mark.parametrize("name", PINNED_DRAWS)
def test_random_element_draws_are_pinned(name):
    # the seeded commands (leibniz, quasi-inner) print what these draws give
    model, rng = get_model(name), Random(7)
    encodings, next_draw = PINNED_DRAWS[name]
    assert [model.encode_payload(random_payload(model, rng)) for _ in range(3)] == encodings
    assert rng.randrange(10**6) == next_draw


def test_unknown_generator_rejected(h3):
    with pytest.raises(UsageError):
        parse_word(h3, "Ax.z")
    # outside a product, 'l' is a token like any other
    with pytest.raises(UsageError, match="generator 'l' "):
        parse_word(h3, "l.Ax")


def test_get_model_names():
    assert get_model("h3").name == "h3"
    assert get_model("free3").rank == 3
    assert get_model("h3*dinf").name == "h3*dinf"
    with pytest.raises(UsageError):
        get_model("nope")


def test_get_model_products_nest_to_the_right():
    m = get_model("h3*dinf*free2")
    assert m.name == "h3*dinf*free2"
    assert m.left.name == "h3" and m.right.name == "dinf*free2"
    assert m.right.right.name == "free2"
    with pytest.raises(UsageError, match="'nope'"):
        get_model("h3*nope*dinf")


def test_get_model_caps_product_factors():
    # 64 factors still multiply (payload arithmetic recurses once per factor)
    m = get_model("*".join(["h3"] * 64))
    g = random_payload(m, Random(7))
    e = m.mul_payload(g, m.inv_payload(g))
    assert m.decode_payload(m.encode_payload(e)) == m.identity_payload()
    # a name of 3001 factors is refused before anything recurses
    with pytest.raises(UsageError, match="at most 64 factors"):
        get_model("*".join(["h3"] * 3001))


# ---------------------------------------------------------------------------
# The text grammar of encodings and model names, pinned; a name of None
# reads the text as a model name


# text with a newline in it -> the decoder's message; it was once read as the
# text without the newline, or with the newline kept in the payload
NEWLINE_TEXTS = [
    ("h3", "H3(1,2,3)\n", "bad H3 element encoding: 'H3(1,2,3)\\n'"),
    ("free2", "x1\n.x2", "bad free2 letter: 'x1\\n'"),
    ("dinf", "ab\n", "bad dinf element encoding: 'ab\\n'"),
    ("dsemi", "ab\n", "bad dinf element encoding: 'ab\\n'"),
    ("h3semi", "H3(1,2,3)\n", "bad H3 element encoding: 'H3(1,2,3)\\n'"),
    ("h3*dinf", "(H3(1,2,3)|ab\n)", "bad dinf element encoding: 'ab\\n'"),
    ("h3*dinf*free2", "(H3(1,2,3)\n|(a|x1))", "bad H3 element encoding: 'H3(1,2,3)\\n'"),
    (None, "free2\n", "unknown model name: 'free2\\n'"),
]

# text -> the payload it reads as (a model name for name None)
ACCEPTED_TEXTS = [
    ("h3", "H3(١,2,3)", (1, 2, 3)),  # an Arabic-Indic digit one
    ("h3", "H3(-0,0,0)", (0, 0, 0)),
    ("free2", "x01", ((0, 1),)),
    (None, "free02", "free2"),
    ("dsemi", "bac", ("ba", 1)),
    ("dsemi", "ba;c", ("ba", 1)),
]

REFUSED_TEXTS = [
    ("h3", text, f"bad H3 element encoding: {text!r}")
    for text in ["H3(+1,2,3)", "H3( 1,2,3)", "H3(1_0,2,3)", "H3(--1,2,3)", "H3(1,2)"]
] + [
    ("free2", text, f"bad free2 letter: {text!r}") for text in ["x^-1", "x1^-1^-1", "x0"]
] + [
    (None, text, f"unknown model name: {text!r}") for text in ["free", "free-1"]
] + [("dinf", "aab", "encoding 'aab' is not an alternating word")]


def _read(name, text):
    return get_model(text).name if name is None else get_model(name).decode_payload(text)


@pytest.mark.parametrize("name, text, message", NEWLINE_TEXTS + REFUSED_TEXTS)
def test_text_is_refused(name, text, message):
    with pytest.raises(UsageError, match="^" + re.escape(message) + "$"):
        _read(name, text)


@pytest.mark.parametrize("name, text, want", ACCEPTED_TEXTS)
def test_text_is_accepted(name, text, want):
    assert _read(name, text) == want


def test_at_least_is_a_value_of_its_own():
    """AtLeast compares, hashes and prints as the frozen dataclass it was:
    equal only to an AtLeast of the same bound, never to an int."""
    three = AtLeast(3)
    assert three == AtLeast(3) and not three != AtLeast(3)
    assert three != AtLeast(4) and not three == AtLeast(4)
    assert hash(three) == hash(AtLeast(3))
    assert AtLeast(3) in {three} and AtLeast(4) not in {three}
    assert len({three, AtLeast(3), AtLeast(4)}) == 2
    assert {three: "x"}[AtLeast(3)] == "x"
    assert str(three) == "≥3" and repr(three) == "AtLeast(bound=3)"
    assert f"{three}" == "≥3" and repr([three]) == "[AtLeast(bound=3)]"
    assert three != 3 and not three == 3 and 3 != three
    assert three.__eq__(3) is NotImplemented
    assert not isinstance(three, int)
    assert three not in {3} and 3 not in {three}
