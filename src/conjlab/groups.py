"""Exact word arithmetic and canonical forms for the concrete group models.

Every model hands out immutable `GroupElement` values whose payload is a
unique canonical form, so equality/hashing is structural and the text
encoding is injective.  All integer payloads are plain Python ints
(arbitrary precision), so nothing overflows when conjugation stretches the
central coordinate.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

from .errors import ModelMismatchError, ResourceBudgetError, UsageError

DEFAULT_NODE_BUDGET = 10**6


@dataclass(frozen=True)
class Generator:
    """A formal generator letter, possibly inverted."""

    gid: str
    inverse_flag: bool = False

    def inverse(self) -> "Generator":
        return Generator(self.gid, not self.inverse_flag)

    def label(self) -> str:
        return self.gid + ("^-1" if self.inverse_flag else "")


# A Word is just a sequence of Generator letters; it may be unreduced and
# the empty sequence denotes the identity.
Word = tuple


@dataclass(frozen=True)
class AtLeast:
    """Sentinel for a quantity only known to be >= `bound`."""

    bound: int

    def __str__(self):
        return f"≥{self.bound}"


@dataclass(frozen=True)
class Search:
    """Outcome of `GroupModel.bfs`: `dist` maps each visited payload to its
    depth, in visiting order; `cut` is the depth at which the node budget
    ran out, if it did; `exhausted` is True when the frontier emptied.
    """

    dist: dict
    radius: int
    cut: int | None = None
    exhausted: bool = False

    def distance(self, target):
        """The depth of `target`, or AtLeast(depth searched) if unvisited."""
        if target in self.dist:
            return self.dist[target]
        return AtLeast(self.radius if self.cut is None else self.cut)


class GroupElement:
    """An element of a concrete model in canonical form."""

    __slots__ = ("model", "payload", "_hash")

    def __init__(self, model: "GroupModel", payload):
        self.model = model
        self.payload = payload
        self._hash = hash((model.name, payload))

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.model.name == other.model.name
            and self.payload == other.payload
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self.model.name, self.encode()) < (other.model.name, other.encode())

    def __mul__(self, other):
        return self.model.multiply(self, other)

    def inverse(self) -> "GroupElement":
        return self.model.invert(self)

    def is_identity(self) -> bool:
        return self.payload == self.model.identity_payload()

    def encode(self) -> str:
        return self.model.encode_payload(self.payload)

    def __repr__(self):
        return f"<{self.model.name}:{self.encode()}>"


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

    # -- element-level interface -------------------------------------------

    def element(self, payload) -> GroupElement:
        return GroupElement(self, payload)

    def identity(self) -> GroupElement:
        return self.element(self.identity_payload())

    def gens(self) -> list[Generator]:
        return [Generator(gid) for gid in self.generator_payloads()]

    def all_gens(self) -> list[Generator]:
        """The symmetric generating set: every generator and its inverse."""
        return [gen for gen, _, _ in self.gen_triples]

    @cached_property
    def gen_triples(self) -> list:
        """(generator, x, x^-1) payload triples over the symmetric
        generating set, each generator followed by its inverse."""
        out = []
        for gid, x in self.generator_payloads().items():
            xi = self.inv_payload(x)
            out += [(Generator(gid), x, xi), (Generator(gid, True), xi, x)]
        return out

    def generator_element(self, gen: Generator) -> GroupElement:
        payloads = self.generator_payloads()
        if gen.gid not in payloads:
            raise UsageError(f"unknown generator {gen.gid!r} for model {self.name}")
        p = payloads[gen.gid]
        if gen.inverse_flag:
            p = self.inv_payload(p)
        return self.element(p)

    def _check(self, *elems):
        for e in elems:
            if e.model.name != self.name:
                raise ModelMismatchError(
                    f"element of model {e.model.name} used with model {self.name}"
                )

    def conj_step(self, p, x, xi):
        """Conjugation-graph step along generator x: x p x^-1."""
        return self.mul_payload(x, self.mul_payload(p, xi))

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a, b)
        return self.element(self.mul_payload(a.payload, b.payload))

    def invert(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return self.element(self.inv_payload(a.payload))

    def conjugate(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g * h * g^-1 in canonical form."""
        self._check(g, h)
        p = self.mul_payload(g.payload, self.mul_payload(h.payload, self.inv_payload(g.payload)))
        return self.element(p)

    def normal_form(self, word) -> GroupElement:
        p = self.identity_payload()
        for gen in word:
            q = self.generator_element(gen).payload
            p = self.mul_payload(p, q)
        return self.element(p)

    def encode(self, g: GroupElement) -> str:
        self._check(g)
        return self.encode_payload(g.payload)

    def decode(self, text: str) -> GroupElement:
        return self.element(self.decode_payload(text))

    # -- budgeted search ---------------------------------------------------

    def bfs(self, start, step, radius: int, node_budget: int, targets=()) -> Search:
        """Breadth-first search over payloads from `start`.

        The neighbours of p are step(p, x, x^-1) over `gen_triples`, in
        order.  The search stops after depth `radius`, when the frontier
        empties, once every target is visited, or as soon as more than
        `node_budget` nodes are visited (that last node is kept, and is
        checked as a target first).
        """
        dist = {start: 0}
        left = set(targets) - {start}
        if targets and not left:
            return Search(dist, radius)
        frontier = [start]
        for depth in range(1, radius + 1):
            nxt = []
            for v in frontier:
                for _, x, xi in self.gen_triples:
                    w = step(v, x, xi)
                    if w in dist:
                        continue
                    dist[w] = depth
                    nxt.append(w)
                    if w in left:
                        left.remove(w)
                        if not left:
                            return Search(dist, radius)
                    if len(dist) > node_budget:
                        return Search(dist, radius, cut=depth)
            if not nxt:
                return Search(dist, radius, exhausted=True)
            frontier = nxt
        return Search(dist, radius)

    def _cayley_bfs(self, caller, radius, node_budget, targets=()) -> Search:
        """`bfs` from the identity along p -> p x; raises
        ResourceBudgetError when the node budget runs out."""
        mul = self.mul_payload
        search = self.bfs(self.identity_payload(), lambda p, x, xi: mul(p, x),
                          radius, node_budget, targets)
        if search.cut is not None:
            raise ResourceBudgetError(
                f"{caller} node budget {node_budget} exceeded",
                partial_count=len(search.dist),
            )
        return search

    def word_length(self, g: GroupElement, budget: int, node_budget: int = DEFAULT_NODE_BUDGET):
        """Geodesic length of g w.r.t. the symmetric generating set.

        Returns the exact length when it is <= budget, else AtLeast(budget).
        """
        self._check(g)
        search = self._cayley_bfs("word_length", budget, node_budget, [g.payload])
        return search.distance(g.payload)

    def cayley_ball(self, radius: int, node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
        """Map element -> word length, for every element of length <= radius."""
        ball = self._cayley_bfs("cayley_ball", radius, node_budget)
        return {self.element(p): d for p, d in ball.dist.items()}


# ---------------------------------------------------------------------------
# Heisenberg group H3(Z)
#
# The canonical payload is the integer triple (a, b, c) of the element
# Ax^b Ap^a A1^c, i.e. the upper unitriangular matrix
#   [[1, a, c], [0, 1, b], [0, 0, 1]].
# The closed-form product below is the matrix product of two such matrices.


class Heisenberg(GroupModel):
    name = "h3"

    _DECODE = re.compile(r"^H3\((-?\d+),(-?\d+),(-?\d+)\)$")

    def identity_payload(self):
        return (0, 0, 0)

    def mul_payload(self, p1, p2):
        a1, b1, c1 = p1
        a2, b2, c2 = p2
        return (a1 + a2, b1 + b2, c1 + c2 + a1 * b2)

    def inv_payload(self, p):
        a, b, c = p
        return (-a, -b, a * b - c)

    def encode_payload(self, p) -> str:
        return f"H3({p[0]},{p[1]},{p[2]})"

    def decode_payload(self, text: str):
        if text == "e":
            return (0, 0, 0)
        m = self._DECODE.match(text)
        if not m:
            raise UsageError(f"bad H3 element encoding: {text!r}")
        return tuple(int(x) for x in m.groups())

    def generator_payloads(self) -> dict:
        return {"Ax": (0, 1, 0), "Ap": (1, 0, 0), "A1": (0, 0, 1)}


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
        out = list(p1)
        for letter in p2:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

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
            m = re.match(r"^x(\d+)(\^-1)?$", tok)
            if not m or not (1 <= int(m.group(1)) <= self.rank):
                raise UsageError(f"bad {self.name} letter: {tok!r}")
            letters.append((int(m.group(1)) - 1, -1 if m.group(2) else 1))
        p = self.mul_payload((), tuple(letters))
        if len(p) != len(letters):
            raise UsageError(f"encoding {text!r} is not a reduced word")
        return p

    def generator_payloads(self) -> dict:
        return {f"x{i + 1}": ((i, 1),) for i in range(self.rank)}


# ---------------------------------------------------------------------------
# Infinite dihedral group D_inf = <a, b | a^2, b^2>


def _reduce_involutions(letters: str) -> str:
    out = []
    for ch in letters:
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


class DihedralInf(GroupModel):
    name = "dinf"

    def identity_payload(self):
        return ""

    def mul_payload(self, p1, p2):
        return _reduce_involutions(p1 + p2)

    def inv_payload(self, p):
        return p[::-1]

    def encode_payload(self, p) -> str:
        return p if p else "e"

    def decode_payload(self, text: str):
        if text == "e":
            return ""
        if not re.match(r"^[ab]+$", text):
            raise UsageError(f"bad dinf element encoding: {text!r}")
        if _reduce_involutions(text) != text:
            raise UsageError(f"encoding {text!r} is not an alternating word")
        return text

    def generator_payloads(self) -> dict:
        return {"a": "a", "b": "b"}


# ---------------------------------------------------------------------------
# D_inf >| Z2 = <a, b, c | a^2, b^2, c^2, cac = b>
#
# Payload (w, eps) for the element w * c^eps; the defining automorphism
# swaps a and b.

_SWAP_AB = str.maketrans("ab", "ba")


class DihedralSemidirect(GroupModel):
    name = "dsemi"

    def __init__(self):
        self._dinf = DihedralInf()

    def identity_payload(self):
        return ("", 0)

    def mul_payload(self, p1, p2):
        w1, e1 = p1
        w2, e2 = p2
        if e1:
            w2 = w2.translate(_SWAP_AB)
        return (_reduce_involutions(w1 + w2), (e1 + e2) % 2)

    def inv_payload(self, p):
        w, e = p
        wi = w[::-1]
        if e:
            wi = wi.translate(_SWAP_AB)
        return (wi, e)

    def encode_payload(self, p) -> str:
        w, e = p
        base = w if w else "e"
        return base + ";c" if e else base

    def decode_payload(self, text: str):
        eps = 0
        if text.endswith(";c"):
            eps = 1
            text = text[:-2]
        elif text.endswith("c"):
            # convenience aliases like "c", "bac" accepted on input
            eps = 1
            text = text[:-1] or "e"
        return (self._dinf.decode_payload(text), eps)

    def generator_payloads(self) -> dict:
        return {"a": ("a", 0), "b": ("b", 0), "c": ("", 1)}


# ---------------------------------------------------------------------------
# H3 >| Z2, with c Ap c = Ax, c Ax c = Ap, c A1 c = A1^-1.
#
# On triples the defining automorphism is sigma(a, b, c) = (b, a, a*b - c):
# it swaps the Ap/Ax exponents and the central coordinate picks up the
# commutator correction from reordering.


class HeisenbergSemidirect(GroupModel):
    name = "h3semi"

    def __init__(self):
        self._h3 = Heisenberg()

    @staticmethod
    def _sigma(t):
        a, b, c = t
        return (b, a, a * b - c)

    def identity_payload(self):
        return ((0, 0, 0), 0)

    def mul_payload(self, p1, p2):
        t1, e1 = p1
        t2, e2 = p2
        if e1:
            t2 = self._sigma(t2)
        return (self._h3.mul_payload(t1, t2), (e1 + e2) % 2)

    def inv_payload(self, p):
        t, e = p
        ti = self._h3.inv_payload(t)
        if e:
            ti = self._sigma(ti)
        return (ti, e)

    def encode_payload(self, p) -> str:
        t, e = p
        base = self._h3.encode_payload(t)
        return base + ";c" if e else base

    def decode_payload(self, text: str):
        eps = 0
        if text.endswith(";c"):
            eps = 1
            text = text[:-2]
        elif text == "c":
            return ((0, 0, 0), 1)
        return (self._h3.decode_payload(text), eps)

    def generator_payloads(self) -> dict:
        return {
            "Ax": ((0, 1, 0), 0),
            "Ap": ((1, 0, 0), 0),
            "A1": ((0, 0, 1), 0),
            "c": ((0, 0, 0), 1),
        }


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


# ---------------------------------------------------------------------------
# Model registry and word parsing


def get_model(name: str) -> GroupModel:
    """Resolve a model name like 'h3', 'free2', 'dinf', 'dsemi', 'h3semi',
    or a product 'h3*dinf'."""
    if "*" in name:
        left, _, right = name.partition("*")
        return DirectProduct(get_model(left), get_model(right))
    if name == "h3":
        return Heisenberg()
    if name == "dinf":
        return DihedralInf()
    if name == "dsemi":
        return DihedralSemidirect()
    if name == "h3semi":
        return HeisenbergSemidirect()
    m = re.match(r"^free(\d+)$", name)
    if m:
        return FreeGroup(int(m.group(1)))
    raise UsageError(f"unknown model name: {name!r}")


def parse_word(model: GroupModel, text: str) -> Word:
    """Parse a dotted word like 'Ax.Ap^-1' into a Word for the model."""
    if text in ("", "e"):
        return ()
    known = model.generator_payloads()
    letters = []
    for tok in text.split("."):
        inv = tok.endswith("^-1")
        gid = tok[:-3] if inv else tok
        if gid not in known:
            raise UsageError(f"unknown generator {gid!r} for model {model.name}")
        letters.append(Generator(gid, inv))
    return tuple(letters)
