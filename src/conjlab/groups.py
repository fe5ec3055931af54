"""Exact word arithmetic and canonical forms for the concrete group models.

Every element is a payload: a unique canonical form, so equality and
hashing are structural and the text encoding is injective.  Text becomes
a payload at the API boundary only, through `decode_payload` and
`parse_word`.  All integer payloads are plain Python ints (arbitrary
precision), so nothing overflows when conjugation stretches the central
coordinate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property, reduce

from .errors import ResourceBudgetError, UsageError

DEFAULT_NODE_BUDGET = 10**6
MAX_FREE_RANK = 2**16  # past this, listing the generators exhausts time or memory


def _read_int(digits: str) -> int:
    """A decimal literal from an encoding or a model name; past Python's
    digit limit for int/str conversion, int() raises a bare ValueError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise UsageError(f"integer literal too long: {len(digits)} characters") from exc


class AtLeast:
    """Sentinel for a quantity only known to be >= `bound`."""

    def __init__(self, bound: int):
        self.bound = bound

    def __eq__(self, other):
        return self.bound == other.bound if type(other) is AtLeast else NotImplemented

    def __hash__(self):
        return hash((self.bound,))

    def __repr__(self):
        return f"AtLeast(bound={self.bound!r})"

    def __str__(self):
        return f"≥{self.bound}"


class Search:
    """What `GroupModel.search` found: each payload the start side visited,
    with its depth, in visiting order; the goal's distance, or AtLeast the
    shortest length not ruled out; the number of nodes visited when the
    node budget ran out, if it did; whether a frontier emptied."""

    def __init__(self, dist: dict, length: int | AtLeast, cut: int | None = None,
                 exhausted: bool = False):
        self.dist, self.length, self.cut, self.exhausted = dist, length, cut, exhausted


class GroupModel(ABC):
    """Abstract group interface: payload-level ops plus generic searches."""

    name: str

    # -- payload-level primitives ------------------------------------------

    @abstractmethod
    def identity_payload(self):
        ...

    @abstractmethod
    def mul_payload(self, p1, p2):
        ...

    @abstractmethod
    def inv_payload(self, p):
        ...

    @abstractmethod
    def encode_payload(self, p) -> str:
        ...

    @abstractmethod
    def decode_payload(self, text: str):
        ...

    @abstractmethod
    def generator_payloads(self) -> dict:
        """Map generator id -> payload of that generator."""

    # -- conjugacy-class invariants ------------------------------------------

    @abstractmethod
    def class_is_finite(self, p) -> bool:
        """Whether the conjugacy class of p, its conjugation-graph
        component, is finite."""

    def conjugator_length(self, u, v):
        """The least word length of a g with g u g^-1 = v, the conjugation
        distance; math.inf when u and v are not conjugate, and None where
        the model has no formula for it.  This default has none: it answers
        math.inf where `abelian_image`, the image in an abelian quotient,
        differs, since conjugates have equal images.  Only the models that
        keep the default define `abelian_image`."""
        return math.inf if self.abelian_image(u) != self.abelian_image(v) else None

    # -- generators, steps and products ------------------------------------

    @cached_property
    def gen_triples(self) -> list:
        """(label, x, x^-1) payload triples over the symmetric generating
        set, each generator `gid` followed by its inverse `gid^-1`."""
        out = []
        for gid, x in self.generator_payloads().items():
            xi = self.inv_payload(x)
            out += [(gid, x, xi), (gid + "^-1", xi, x)]
        return out

    def conj_step(self, p, x, xi):
        """x p x^-1, x^-1 of payload `xi`: the conjugation-graph step along
        a generator x, and the one conjugation of a payload by any x."""
        return self.mul_payload(x, self.mul_payload(p, xi))

    def right_step(self, p, x, xi):
        """Cayley-graph step along generator x: p x."""
        return self.mul_payload(p, x)

    def mul_all(self, payloads, gp, left=False) -> list:
        """[s g for s in payloads], or [g s] with `left`, g of payload `gp`:
        the batch form of `mul_payload` that the derivation kernels run on."""
        mul = self.mul_payload
        if left:
            return [mul(gp, s) for s in payloads]
        return [mul(s, gp) for s in payloads]

    def conj_hits(self, payloads):
        """The hit finder of a column of distinct payloads s: a function of
        g and g^-1 (payloads) that lists the pairs (i, j) with
        g s_i g^-1 = s_j.  Here it conjugates every s and looks it up."""
        index = {s: i for i, s in enumerate(payloads)}
        mul = self.mul_payload

        def hits(gp, gi):
            return [(i, j) for i, s in enumerate(payloads)
                    if (j := index.get(mul(gp, mul(s, gi)))) is not None]
        return hits

    # the single-product names `bench/tracer.py` times; no command calls them

    def multiply(self, p1, p2):
        return self.mul_payload(p1, p2)

    def conjugate(self, gp, hp):
        """g h g^-1, g and h of payloads `gp` and `hp`."""
        return self.conj_step(hp, gp, self.inv_payload(gp))

    # -- budgeted search ---------------------------------------------------

    def search(self, start, step, radius: int, node_budget: int, goal=None) -> Search:
        """Budgeted search from `start` along step(p, x, x^-1) over
        `gen_triples`.  Without a goal it is a breadth-first ball of depth
        `radius`.  With one it grows from both ends (Pohl, 1971): `step`
        must be undone by the inverse generator, as `conj_step` and
        `right_step` are.  The side with the smaller nonempty frontier
        grows by whole levels; while complete levels d0 and d1 share no
        node, no path of length <= d0 + d1 exists, so the first meet closes
        one of length d0 + d1 + 1.  The search stops at a meet, when a
        frontier empties, when d0 + d1 reaches `radius`, or once the start
        and the nodes either side adds exceed `node_budget`."""
        if start == goal:
            return Search({start: 0}, 0)
        seen = ({start: 0}, {} if goal is None else {goal: 0})
        fronts = [[start], [] if goal is None else [goal]]
        depth = [0, 0]
        visited = 1  # the goal is given, not found, as in a one-way search
        while depth[0] + depth[1] < radius:
            i = int(0 < len(fronts[1]) < len(fronts[0]))
            here, there = seen[i], seen[1 - i]
            depth[i] += 1
            nxt = []
            for v in fronts[i]:
                for _, x, xi in self.gen_triples:
                    w = step(v, x, xi)
                    if w not in here:
                        if there and w in there:  # a meet; the sides share no node
                            return Search(seen[0], depth[i] + there[w])
                        here[w] = depth[i]
                        nxt.append(w)
                        visited += 1
                        if visited > node_budget:
                            return Search(seen[0], AtLeast(depth[0] + depth[1]), visited)
            if not nxt:  # a finite component without the other end
                return Search(seen[0], AtLeast(radius), exhausted=True)
            fronts[i] = nxt
        return Search(seen[0], AtLeast(radius))

    def cayley_ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
        """Map payload -> word length, for every element of length <= radius;
        raises ResourceBudgetError when the node budget runs out."""
        ball = self.search(self.identity_payload(), self.right_step, radius, node_budget)
        if ball.cut is not None:
            raise ResourceBudgetError(f"cayley_ball node budget {node_budget} exceeded",
                                      partial_count=ball.cut)
        return ball.dist


# ---------------------------------------------------------------------------
# Heisenberg group H3(Z)
#
# The canonical payload is the integer triple (a, b, c) of the element
# Ax^b Ap^a A1^c, i.e. the upper unitriangular matrix
#   [[1, a, c], [0, 1, b], [0, 0, 1]].
# The closed-form product below is the matrix product of two such matrices.


def _direction(a: int, b: int) -> tuple:
    """The primitive vector of the line through 0 and (a, b) != 0, its
    first nonzero entry positive."""
    g = math.gcd(a, b)
    return (a // g, b // g) if a > 0 or a == 0 < b else (-a // g, -b // g)


class Heisenberg(GroupModel):
    name = "h3"

    def identity_payload(self):
        return (0, 0, 0)

    def mul_payload(self, p1, p2):
        a1, b1, c1 = p1
        a2, b2, c2 = p2
        return (a1 + a2, b1 + b2, c1 + c2 + a1 * b2)

    def inv_payload(self, p):
        a, b, c = p
        return (-a, -b, a * b - c)

    def mul_all(self, payloads, gp, left=False) -> list:
        # mul_payload written inline: no call per term
        a, b, c = gp
        if left:
            return [(a + a2, b + b2, c + c2 + a * b2) for a2, b2, c2 in payloads]
        return [(a1 + a, b1 + b, c1 + c + a1 * b) for a1, b1, c1 in payloads]

    def conj_step(self, p, x, xi):
        # x p x^-1 = (a, b, c + u b - v a) for p = (a, b, c) and x = (u, v, .)
        a, b, c = p
        return (a, b, c + x[0] * b - x[1] * a)

    def conj_hits(self, payloads):
        # g = (x, y, .) keeps each (a, b) fibre and shifts its c by
        # x b - y a, which is 0 on the central fibre and on the fibres whose
        # (a, b) lies on the line of (x, y): those are fixed whole.  Any
        # other hit moves c to c + lam within a fibre of two or more cells.
        fibres = {}
        for i, (a, b, c) in enumerate(payloads):
            fibres.setdefault((a, b), {})[c] = i
        central = [(i, i) for i in fibres.pop((0, 0), {}).values()]
        lines = {}  # the primitive direction of (a, b) -> the fibres on its line
        for (a, b), cells in fibres.items():
            lines.setdefault(_direction(a, b), []).append(cells)
        crowded = [(a, b, cells) for (a, b), cells in fibres.items() if len(cells) > 1]

        def hits(gp, gi):
            x, y, _ = gp
            if not (x or y):  # a central g fixes everything
                return [(i, i) for i in range(len(payloads))]
            out = central + [(i, i) for cells in lines.get(_direction(x, y), ())
                             for i in cells.values()]
            for a, b, cells in crowded:
                lam = x * b - y * a
                if lam:
                    get = cells.get
                    for c, i in cells.items():  # a loop: a comprehension costs a call
                        if (j := get(c + lam)) is not None:
                            out.append((i, j))
            return out
        return hits

    def encode_payload(self, p) -> str:
        try:
            return f"H3({p[0]},{p[1]},{p[2]})"
        except ValueError:  # beyond sys.get_int_max_str_digits()
            raise UsageError("an element is too large to print") from None

    def decode_payload(self, text: str):
        if text == "e":
            return (0, 0, 0)
        parts = text[3:-1].split(",") if text.startswith("H3(") and text.endswith(")") else []
        if len(parts) != 3 or not all(s.removeprefix("-").isdecimal() for s in parts):
            raise UsageError(f"bad H3 element encoding: {text!r}")
        return tuple(map(_read_int, parts))

    def generator_payloads(self) -> dict:
        return {"Ax": (0, 1, 0), "Ap": (1, 0, 0), "A1": (0, 0, 1)}

    def abelian_image(self, p):
        return p[:2]

    def class_is_finite(self, p) -> bool:
        # (a, b, c) with (a, b) != 0 is conjugate to (a, b, c + k gcd(a, b))
        return p[0] == p[1] == 0


# ---------------------------------------------------------------------------
# Free groups


class FreeGroup(GroupModel):
    """Free(n) on generators x1..xn; payload is the reduced word as a tuple
    of (generator index, +/-1) letters."""

    def __init__(self, rank: int):
        if rank < 1:
            raise UsageError("free group rank must be >= 1")
        self.rank = rank
        self.name = f"free{rank}"

    def identity_payload(self):
        return ()

    def mul_payload(self, p1, p2):
        # both words are reduced, so letters cancel only at the junction:
        # the last k of p1 against the first k of p2
        if not (p1 and p2) or p1[-1] != (p2[0][0], -p2[0][1]):
            return p1 + p2
        k, m = 1, min(len(p1), len(p2))
        while k < m and p1[-1 - k] == (p2[k][0], -p2[k][1]):
            k += 1
        return p1[: len(p1) - k] + p2[k:]

    def inv_payload(self, p):
        return tuple((i, -s) for i, s in reversed(p))

    def encode_payload(self, p) -> str:
        if not p:
            return "e"
        return ".".join(f"x{i + 1}" + ("^-1" if s < 0 else "") for i, s in p)

    def decode_payload(self, text: str):
        if text == "e":
            return ()
        letters = []
        for tok in text.split("."):
            digits = tok.removesuffix("^-1")[1:]
            i = _read_int(digits) if tok[:1] == "x" and digits.isdecimal() else 0
            if not 1 <= i <= self.rank:
                raise UsageError(f"bad {self.name} letter: {tok!r}")
            letters.append((i - 1, -1 if tok.endswith("^-1") else 1))
        if any(a == (b, -t) for a, (b, t) in zip(letters, letters[1:])):
            raise UsageError(f"encoding {text!r} is not a reduced word")
        return tuple(letters)

    def generator_payloads(self) -> dict:
        return {f"x{i + 1}": ((i, 1),) for i in range(self.rank)}

    def class_is_finite(self, p) -> bool:
        # free1 is abelian; in a free group of rank >= 2 only e is central
        return not p or self.rank == 1

    def conjugator_length(self, u, v):
        """Write u = w u' w^-1 and v = z v' z^-1, u' and v' cyclically
        reduced.  They are conjugate exactly when v' is a rotation
        u'[i:] u'[:i] = a^-1 u' a, a = u'[:i]; the conjugators are then
        L r^m R, m in Z, L = z a^-1, R = w^-1 and r the root of u' (Lyndon
        and Schupp, I.2).  |L r^m R| is the distance from L^-1 to r^m R in
        the Cayley tree, where r shifts its axis ...r^-1.r r... by |r|.
        R leaves the axis at e, as w u' w^-1 is reduced, and L^-1 = a z^-1
        leaves it after its common prefix t with r r..., as z v' z^-1 is
        reduced.  So the distance is the two heights off the axis plus
        |t - m |r||, or at most the heights at the one m where the exits
        meet, and the best m is the floor or the ceiling of t / |r|."""
        (w, uc), (z, vc) = self._cyclic_split(u), self._cyclic_split(v)
        if not (uc and vc):
            return 0 if uc == vc else math.inf
        # one character a letter, so rotations and the root come from str.find
        su, sv = ("".join([chr(2 * i + (e > 0)) for i, e in p]) for p in (uc, vc))
        i = (su + su).find(sv) if len(su) == len(sv) else -1
        if i < 0:
            return math.inf
        r = uc[: (su + su).find(su, 1)]
        inv, mul = self.inv_payload, self.mul_payload
        left, right = mul(z, inv(uc[:i])), inv(w)
        x, t = inv(left), 0
        while t < len(x) and x[t] == r[t % len(r)]:
            t += 1
        m = t // len(r)
        return min(len(mul(mul(left, r * k), right)) for k in (m, m + 1))

    def _cyclic_split(self, p):
        """(w, p') with p = w p' w^-1 and p' cyclically reduced: w is the
        longest common prefix of p and p^-1 = w p'^-1 w^-1."""
        q, k = self.inv_payload(p), 0
        while k < len(p) and p[k] == q[k]:
            k += 1
        return p[:k], p[k : len(p) - k]


# ---------------------------------------------------------------------------
# Infinite dihedral group D_inf = <a, b | a^2, b^2>


class DihedralInf(GroupModel):
    name = "dinf"

    def identity_payload(self):
        return ""

    def mul_payload(self, p1, p2):
        # both words are reduced (alternating), so letters cancel only at
        # the junction, and once its two letters agree, the shorter word
        # cancels whole against the other
        if p1 and p2 and p1[-1] == p2[0]:
            k = min(len(p1), len(p2))
            return p1[: len(p1) - k] + p2[k:]
        return p1 + p2

    def inv_payload(self, p):
        return p[::-1]

    def encode_payload(self, p) -> str:
        return p if p else "e"

    def decode_payload(self, text: str):
        if text == "e":
            return ""
        if not text or text.strip("ab"):
            raise UsageError(f"bad dinf element encoding: {text!r}")
        if "aa" in text or "bb" in text:
            raise UsageError(f"encoding {text!r} is not an alternating word")
        return text

    def generator_payloads(self) -> dict:
        return {"a": "a", "b": "b"}

    def abelian_image(self, p):
        return (p.count("a") % 2, p.count("b") % 2)

    def class_is_finite(self, p) -> bool:
        # an even word is a translation (ab)^k, conjugate only to (ba)^k;
        # an odd one is a reflection w, and (ab)^k w (ba)^k runs through
        # infinitely many
        return len(p) % 2 == 0


# ---------------------------------------------------------------------------
# Swap extensions: base >| Z2 = <base, c | c^2, c t c = sigma(t)>
#
# Payload (t, eps) for the element t * c^eps, sigma an involutive
# automorphism of the base; encoded "t" or "t;c", with "c" read as e;c.


class SwapExtension(GroupModel):
    def __init__(self, base: GroupModel):
        self.base = base

    @abstractmethod
    def sigma(self, t):
        """The automorphism t -> c t c of the base, on base payloads."""

    def identity_payload(self):
        return (self.base.identity_payload(), 0)

    def mul_payload(self, p1, p2):
        t1, e1 = p1
        t2, e2 = p2
        return (self.base.mul_payload(t1, self.sigma(t2) if e1 else t2), (e1 + e2) % 2)

    def inv_payload(self, p):
        t, e = p
        ti = self.base.inv_payload(t)
        return (self.sigma(ti) if e else ti, e)

    def encode_payload(self, p) -> str:
        t, e = p
        base = self.base.encode_payload(t)
        return base + ";c" if e else base

    def decode_payload(self, text: str):
        if text == "c":
            return (self.base.identity_payload(), 1)
        if text.endswith(";c"):
            return (self.base.decode_payload(text[:-2]), 1)
        return (self.base.decode_payload(text), 0)

    def generator_payloads(self) -> dict:
        gens = {gid: (t, 0) for gid, t in self.base.generator_payloads().items()}
        gens["c"] = (self.base.identity_payload(), 1)
        return gens


# D_inf >| Z2 = <a, b, c | a^2, b^2, c^2, cac = b>

_SWAP_AB = str.maketrans("ab", "ba")


class DihedralSemidirect(SwapExtension):
    name = "dsemi"

    def __init__(self):
        super().__init__(DihedralInf())

    def sigma(self, t):
        return t.translate(_SWAP_AB)

    def decode_payload(self, text: str):
        if text.endswith("c") and not text.endswith(";c"):
            # convenience aliases like "bac" for "ba;c" accepted on input
            text = (text[:-1] or "e") + ";c"
        return super().decode_payload(text)

    def abelian_image(self, p):
        return (len(p[0]) % 2, p[1])

    def class_is_finite(self, p) -> bool:
        # the group is <a, c | a^2, c^2> (b = cac), where w c^eps has a word
        # of length |w| + eps mod 2; finite classes are the even ones, as in dinf
        return (len(p[0]) + p[1]) % 2 == 0


# H3 >| Z2, with c Ap c = Ax, c Ax c = Ap, c A1 c = A1^-1.


class HeisenbergSemidirect(SwapExtension):
    name = "h3semi"

    def __init__(self):
        super().__init__(Heisenberg())

    def sigma(self, t):
        # swaps the Ap/Ax exponents; the central coordinate picks up the
        # commutator correction from reordering
        a, b, c = t
        return (b, a, a * b - c)

    def abelian_image(self, p):
        (a, b, _), e = p
        return (a + b, e)

    def class_is_finite(self, p) -> bool:
        # (0, 0, c) is conjugate only to (0, 0, -c); (a, b) != 0 already
        # has an infinite class in h3, and Ax^k (t, 1) Ax^-k moves the
        # a-coordinate of (t, 1) by -k
        (a, b, _), e = p
        return e == 0 and a == b == 0


# ---------------------------------------------------------------------------
# Direct products


class DirectProduct(GroupModel):
    """Componentwise product of two models; generators are the embedded
    generators of both factors, with ids prefixed 'l.' and 'r.'."""

    def __init__(self, left: GroupModel, right: GroupModel):
        self.left = left
        self.right = right
        self.name = f"{left.name}*{right.name}"

    def identity_payload(self):
        return (self.left.identity_payload(), self.right.identity_payload())

    def mul_payload(self, p1, p2):
        return (
            self.left.mul_payload(p1[0], p2[0]),
            self.right.mul_payload(p1[1], p2[1]),
        )

    def inv_payload(self, p):
        return (self.left.inv_payload(p[0]), self.right.inv_payload(p[1]))

    def encode_payload(self, p) -> str:
        return f"({self.left.encode_payload(p[0])}|{self.right.encode_payload(p[1])})"

    def decode_payload(self, text: str):
        if not (text.startswith("(") and text.endswith(")")):
            raise UsageError(f"bad product encoding: {text!r}")
        inner = text[1:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return (
                    self.left.decode_payload(inner[:i]),
                    self.right.decode_payload(inner[i + 1 :]),
                )
        raise UsageError(f"bad product encoding: {text!r}")

    def generator_payloads(self) -> dict:
        out = {}
        er = self.right.identity_payload()
        el = self.left.identity_payload()
        for gid, p in self.left.generator_payloads().items():
            out[f"l.{gid}"] = (p, er)
        for gid, p in self.right.generator_payloads().items():
            out[f"r.{gid}"] = (el, p)
        return out

    def class_is_finite(self, p) -> bool:
        return self.left.class_is_finite(p[0]) and self.right.class_is_finite(p[1])

    def conjugator_length(self, u, v):
        # a generator conjugates one factor, so the distances add
        pair = (self.left.conjugator_length(u[0], v[0]),
                self.right.conjugator_length(u[1], v[1]))
        if math.inf in pair:
            return math.inf
        return None if None in pair else sum(pair)


# ---------------------------------------------------------------------------
# Model registry and word parsing


def get_model(name: str) -> GroupModel:
    """Resolve a model name like 'h3', 'free2', 'dinf', 'dsemi', 'h3semi',
    or a product of at most 64 of them, 'h3*dinf*free2' = h3*(dinf*free2)."""
    parts = name.split("*")
    if len(parts) > 64:  # payload arithmetic recurses once per factor
        raise UsageError(f"a product model has at most 64 factors, not {len(parts)}")
    factors = [_factor_model(part) for part in parts]
    return reduce(lambda right, left: DirectProduct(left, right), reversed(factors))


def _factor_model(name: str) -> GroupModel:
    if name == "h3":
        return Heisenberg()
    if name == "dinf":
        return DihedralInf()
    if name == "dsemi":
        return DihedralSemidirect()
    if name == "h3semi":
        return HeisenbergSemidirect()
    if name.startswith("free") and name[4:].isdecimal():
        rank = _read_int(name[4:])
        if rank > MAX_FREE_RANK:
            raise UsageError(f"a free group has rank at most {MAX_FREE_RANK}, not {rank}")
        return FreeGroup(rank)
    raise UsageError(f"unknown model name: {name!r}")


def parse_word(model: GroupModel, text: str):
    """The payload of a dotted word of `gen_triples` labels like 'Ax.Ap^-1'.

    A product's generator ids contain dots ('l.Ax', 'r.l.a'); no factor id
    is 'l' or 'r', so a token that opens one of the model's ids with a dot
    after it is joined to the tokens that follow."""
    p = model.identity_payload()
    if text in ("", "e"):
        return p
    letters = {label: x for label, x, _ in model.gen_triples}
    prefixes = {label[: i + 1] for label in letters for i, ch in enumerate(label) if ch == "."}
    prefix = ""
    for tok in text.split("."):
        if prefix + tok + "." in prefixes:
            prefix += tok + "."
            continue
        label, prefix = prefix + tok, ""
        if label not in letters:
            raise UsageError(f"unknown generator {label.removesuffix('^-1')!r} "
                             f"for model {model.name}")
        p = model.mul_payload(p, letters[label])
    if prefix:
        raise UsageError(f"unknown generator {prefix[:-1]!r} for model {model.name}")
    return p


# ---------------------------------------------------------------------------
# Seeded random payloads and loops, for the property-check commands and tests


def random_payload(model: GroupModel, rng, max_len: int = 6):
    """The payload of a random word of at most `max_len` generators, drawn
    by `rng`, a `random.Random`."""
    gens = [x for _, x, _ in model.gen_triples]
    p = model.identity_payload()
    for _ in range(rng.randint(0, max_len)):
        p = model.mul_payload(p, rng.choice(gens))
    return p


def random_loop(model: GroupModel, rng, max_len: int = 5) -> tuple:
    """A loop (u, v) of payloads with uv = vu: both are powers of one word."""
    w = random_payload(model, rng, max_len)
    i = rng.randint(-3, 3)
    j = rng.randint(-3, 3)
    return _power(model, w, i), _power(model, w, j)


def _power(model: GroupModel, p, n: int):
    base = p if n >= 0 else model.inv_payload(p)
    out = model.identity_payload()
    for _ in range(abs(n)):
        out = model.mul_payload(out, base)
    return out
