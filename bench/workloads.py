"""Seeded command streams for the conjlab benchmark.

A stream is a list of `Command`s: the argv handed to `conjlab.cli.main`
plus a `kind` label used for the mix report.  Every input is generated
here from the seed as plain text (element encodings, potential JSON), so
the program under test sees only argv and potential files and never
helps build its own inputs.

Each workload has a fixed mix (how many commands of each kind); the seed
chooses the inputs of the seeded kinds.  Keeping the mix fixed keeps the
cost of one pass close across seeds.  Each command also carries a fixed
number of runs, the same on every commit, so the fastest of its runs is
taken over the same number of samples however fast the program is.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from random import Random

DEFAULT_SEED = 1

MODELS = ["h3", "free2", "dinf", "dsemi", "h3semi", "h3*dinf"]

# The seven ROADMAP baseline commands, keyed by the label of its table.
# Potential arguments name entries of FIXED_POTENTIALS.
BASELINE = {
    "appendix 256/4": ["appendix", "--m-max", "256", "--n-max", "4"],
    "bound-probe": ["bound-probe", "--potential", "@harmonic", "--radius", "2"],
    "bc free2": ["bc", "--model", "free2", "--k", "x1", "--k", "x2.x1.x2^-1",
                 "--cayley-radius", "4", "--diam-budget", "6"],
    "derive": ["derive", "--potential", "@harmonic", "--element", "H3(0,2,0)"],
    "limit 64": ["limit", "--potential", "@two_point", "--conjugator", "Ax",
                 "--k-max", "64"],
    "appendix 64": ["appendix"],
    "leibniz 2000": ["leibniz", "--potential", "@two_point", "--samples", "2000"],
}

FIXED_POTENTIALS = {
    "two_point": {"model": "h3", "table": [["H3(1,0,0)", "1"], ["H3(1,0,-1)", "1/2"]],
                  "closed_form": None, "truncation": 100},
    "harmonic": {"model": "h3", "table": [], "closed_form": "appendix_harmonic",
                 "truncation": 10000},
}


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple
    baseline: str | None = None
    runs: int = 1  # fresh-child passes the command is run in

    @property
    def key(self) -> str:
        """Stable identity of the command: its argv, whose potential paths
        are content-addressed."""
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# Elements, built without the program
#
# A payload here is this module's own plain form of an element: h3 (a, b, c);
# free2 a tuple of (generator index, +-1) letters; dinf an alternating
# string over "ab"; dsemi (word, eps); h3semi ((a, b, c), eps); h3*dinf
# ((a, b, c), word).  `encode` turns it into the CLI's canonical text.

_SWAP_AB = str.maketrans("ab", "ba")


def _h3_text(t):
    return f"H3({t[0]},{t[1]},{t[2]})"


def encode(model, p) -> str:
    if model == "h3":
        return _h3_text(p)
    if model == "free2":
        return ".".join(f"x{g + 1}" + ("^-1" if s < 0 else "") for g, s in p) or "e"
    if model == "dinf":
        return p or "e"
    if model == "dsemi":
        return (p[0] or "e") + (";c" if p[1] else "")
    if model == "h3semi":
        return _h3_text(p[0]) + (";c" if p[1] else "")
    if model == "h3*dinf":
        return f"({_h3_text(p[0])}|{p[1] or 'e'})"
    raise ValueError(model)


def _h3(rng, span):
    return tuple(rng.randint(-span, span) for _ in range(3))


def _free_word(rng, length):
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(2), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return tuple(letters)


def _dinf_word(rng, length):
    first = rng.choice("ab")
    return "".join(first if i % 2 == 0 else first.translate(_SWAP_AB)
                   for i in range(length))


def payload(model, rng, size=3):
    """A random element of `model`; `size` bounds its coordinates or length."""
    if model == "h3":
        return _h3(rng, size)
    if model == "free2":
        return _free_word(rng, rng.randint(0, size))
    if model == "dinf":
        return _dinf_word(rng, rng.randint(0, size))
    if model == "dsemi":
        return (_dinf_word(rng, rng.randint(0, size)), rng.randint(0, 1))
    if model == "h3semi":
        return (_h3(rng, size), rng.randint(0, 1))
    if model == "h3*dinf":
        return (_h3(rng, size), _dinf_word(rng, rng.randint(0, size)))
    raise ValueError(model)


def element(model, rng, size=3) -> str:
    return encode(model, payload(model, rng, size))


def distinct_payloads(model, rng, count, size=3):
    out = []
    while len(out) < count:
        p = payload(model, rng, size)
        if p not in out:
            out.append(p)
    return out


def _h3_automorphism(rng, same_signs=False):
    # (a, b, c) -> (sa a, sb b, sa sb c), then optionally the swap
    # (a, b, c) -> (b, a, ab - c); with sa = sb these commute with the
    # h3semi action, which is that swap
    sa = rng.choice((1, -1))
    sb = sa if same_signs else rng.choice((1, -1))
    swap = rng.random() < 0.5

    def f(t):
        a, b, c = sa * t[0], sb * t[1], sa * sb * t[2]
        return (b, a, a * b - c) if swap else (a, b, c)

    return f


def automorphism(model, rng):
    """A random automorphism of `model` that permutes its symmetric
    generating set, as a map on payloads.  It maps the Cayley and
    conjugation graphs onto themselves, so a command with relabelled
    inputs does the same work as the original and prints the same
    numbers about other elements."""
    if model == "h3":
        return _h3_automorphism(rng)
    if model == "h3semi":
        f = _h3_automorphism(rng, same_signs=True)
        return lambda p: (f(p[0]), p[1])
    if model == "free2":
        perm = rng.sample(range(2), 2)
        signs = [rng.choice((1, -1)) for _ in range(2)]
        return lambda p: tuple((perm[g], s * signs[g]) for g, s in p)
    swap = rng.random() < 0.5

    def dinf(w):
        return w.translate(_SWAP_AB) if swap else w

    if model == "dinf":
        return dinf
    if model == "dsemi":
        return lambda p: (dinf(p[0]), p[1])
    if model == "h3*dinf":
        f = _h3_automorphism(rng)
        return lambda p: (f(p[0]), dinf(p[1]))
    raise ValueError(model)


def _fraction(rng):
    num = rng.choice([n for n in range(-5, 6) if n != 0])
    return f"{num}/{rng.randint(1, 5)}"


def random_potential(model, rng, size=4):
    elems = distinct_payloads(model, rng, size)
    return {"model": model,
            "table": [[encode(model, p), _fraction(rng)] for p in elems],
            "closed_form": None, "truncation": 100}


def harmonic(truncation):
    return {"model": "h3", "table": [], "closed_form": "appendix_harmonic",
            "truncation": truncation}


# ---------------------------------------------------------------------------
# Potential files


class PotentialStore:
    """Writes potentials under `directory`, named by a hash of their JSON
    text, so a command's argv (and so its reference key) depends only on
    the potential's content."""

    def __init__(self, directory):
        self.directory = directory
        self.files = {}

    def path(self, data) -> str:
        text = json.dumps(data, sort_keys=True)
        name = hashlib.sha256(text.encode()).hexdigest()[:16] + ".json"
        path = os.path.join(self.directory, name)
        self.files[path] = text
        return path

    def write(self):
        os.makedirs(self.directory, exist_ok=True)
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _baseline(store, label, runs):
    argv = [
        store.path(FIXED_POTENTIALS[a[1:]]) if a.startswith("@") else a
        for a in BASELINE[label]
    ]
    return Command(argv[0], tuple(argv), label, runs)


# ---------------------------------------------------------------------------
# Workloads


def _order_keeping_automorphism(model, rng, elements):
    """A random automorphism that keeps the text order of `elements`.

    bc sorts K by encoding and searches each pair from the element that
    sorts first; a search from the other end does different work.
    """
    def order(g):
        return sorted(range(len(elements)), key=lambda i: encode(model, g(elements[i])))

    want = order(lambda p: p)
    while True:  # the identity is drawn with probability >= 1/16
        f = automorphism(model, rng)
        if order(f) == want:
            return f


def search(rng, store, smoke=False):
    """bc runs, with inverse-seq, graph and limit: the groups and graph
    layers.

    The seeded commands are templates, the same for every seed, whose
    elements the seed relabels by an automorphism of the model.  The
    inputs and outputs change with the seed while the work, which varies
    over orders of magnitude between K sets, stays the same; so the
    stream's median and tail commands are comparable across seeds.
    """
    pool = Random("search templates")
    cmds = []
    # (cayley radius, diameter budget, |K|): one bc costs a few to a
    # few tens of ms
    bc_shape = {"h3": (3, 3, 3), "h3semi": (2, 2, 2), "dsemi": (4, 4, 3),
                "h3*dinf": (2, 2, 2)}
    for model, (radius, diam, size) in bc_shape.items():
        for _ in range(1 if smoke else 10):
            k = distinct_payloads(model, pool, size, size=2)
            f = _order_keeping_automorphism(model, rng, k)
            argv = ["bc", "--model", model]
            for p in k:
                argv += ["--k", encode(model, f(p))]
            argv += ["--cayley-radius", str(radius - smoke),
                     "--diam-budget", str(diam - smoke)]
            cmds.append(Command("bc", tuple(argv)))
    for model, word in (("free2", _free_word), ("dinf", _dinf_word)):
        for _ in range(1 if smoke else 3):
            # a relabelled free2 search meets its target at another point
            # of the last BFS level, so its work would change with the seed
            f = automorphism(model, rng) if model == "dinf" else (lambda p: p)
            u = f(word(pool, pool.randint(1, 3)))
            conj = f(word(pool, pool.randint(1, 2)))
            cmds.append(Command("inverse-seq", (
                "inverse-seq", "--model", model, "--u", encode(model, u),
                "--conjugator",
                encode(model, conj) if model == "free2" else ".".join(conj),
                "--k-max", str(2 if smoke else 4),
                "--budget", str(3 if smoke else 5), "--format", "json")))
    graph_radius = {"h3": 40, "free2": 4, "dinf": 60, "dsemi": 30, "h3semi": 6,
                    "h3*dinf": 5}
    for model, radius in graph_radius.items():
        for fmt in ("dot", "json"):
            f = automorphism(model, rng)
            argv = ["graph", "--model", model,
                    "--base", encode(model, f(payload(model, pool, 2))),
                    "--radius", str(2 if smoke else radius), "--format", fmt]
            if pool.random() < 0.5:
                argv.append("--suppress-loops")
            cmds.append(Command("graph", tuple(argv)))
    cmds = [replace(c, runs=20) for c in cmds]
    if not smoke:
        cmds += [_baseline(store, "bc free2", 6), _baseline(store, "limit 64", 6)]
    return cmds


def _off_support_table(rng):
    # entries with a != 1 stay off the harmonic support (1, -k, -k)
    return [[f"H3({a},{rng.randint(-3, 3)},{rng.randint(-3, 3)})", _fraction(rng)]
            for a in (0, 2)]


def exact(rng, store, smoke=False):
    """appendix, harmonic bound-probe/derive/character and leibniz: the
    derivations and ring layers, over Cayley balls of radius <= 2.

    Each seeded command has a slot that fixes its size (m for appendix,
    the truncation for harmonic potentials); the seed chooses the parts
    that do not change the work: elements, n-max, output format and a
    small table added to the harmonic potential.

    The seeded commands run 20 times; the fixed ROADMAP commands, which
    take 0.4-1 s each, twice; `bound-probe` (3 s) and `appendix 256/4`
    (13 s) once, so that the run ends within its time.
    """
    cmds = []
    for m in (3, 4, 5) if smoke else [m for m in range(5, 11) for _ in (0, 1)]:
        argv = ["appendix", "--m-max", str(m), "--n-max", str(rng.randint(1, 3))]
        if rng.random() < 0.5:
            argv += ["--format", "json"]
        cmds.append(Command("appendix", tuple(argv)))

    def potential(truncation):
        return store.path(dict(harmonic(truncation), table=_off_support_table(rng)))

    def nonzero():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    # derive's and character's elements have b != 0: they move every
    # support element, so each does the same work (a central element
    # would halve it)
    for trunc in (20, 30, 40) if smoke else range(120, 200, 10):
        g = f"H3({rng.randint(-1, 1)},{nonzero()},{rng.randint(-3, 3)})"
        cmds.append(Command("derive", ("derive", "--potential", potential(trunc),
                                       "--element", g)))
    for trunc in (20, 30, 40) if smoke else range(200, 400, 25):
        k = rng.randint(1, 10)
        cmds.append(Command("character", (
            "character", "--potential", potential(trunc),
            "--u", f"H3(1,{-k},{-k})", "--v", f"H3(0,{nonzero()},0)")))
    for trunc in (10, 20) if smoke else (30, 40, 50, 60):
        cmds.append(Command("bound-probe", (
            "bound-probe", "--potential", potential(trunc), "--radius", "2")))
    cmds = [replace(c, runs=20) for c in cmds]
    if not smoke:
        cmds.append(Command("character", (
            "character", "--potential", store.path(FIXED_POTENTIALS["harmonic"]),
            "--u", "H3(1,-3,-3)", "--v", "H3(0,1,0)"), runs=2))
        cmds += [_baseline(store, label, 2)
                 for label in ("appendix 64", "leibniz 2000", "derive")]
        cmds += [_baseline(store, "bound-probe", 1),
                 _baseline(store, "appendix 256/4", 1)]
    return cmds


def batch(rng, store, smoke=False):
    """Hundreds of short commands over all six models: the fixed
    per-command costs (parsing, model lookup, potential loading, JSON
    output)."""
    cmds = []
    rounds = 1 if smoke else 5
    for _ in range(rounds):
        for model in MODELS:
            pot = store.path(random_potential(model, rng))
            seed = str(rng.randint(0, 999))
            u, v = (encode(model, p) for p in distinct_payloads(model, rng, 2))
            base = element(model, rng, 2)
            cmds += [
                Command("leibniz", ("leibniz", "--potential", pot,
                                    "--samples", str(rng.randint(3, 8)), "--seed", seed)),
                Command("character", ("character", "--potential", pot, "--u", u, "--v", v)),
                Command("quasi-inner", ("quasi-inner", "--potential", pot,
                                        "--samples", str(rng.randint(5, 15)), "--seed", seed)),
                Command("derive", ("derive", "--potential", pot, "--element", u)),
                Command("stabilise", ("stabilise", "--potential", pot, "--base", base,
                                      "--radius", "2", "--radii", "0,1,2")),
                Command("graph", ("graph", "--model", model, "--base", base,
                                  "--radius", "1", "--format", rng.choice(("dot", "json")))),
                Command("bc", ("bc", "--model", model, "--k", u, "--k", v,
                               "--cayley-radius", "1", "--diam-budget", "2")),
            ]
        # the harmonic potential at the default truncation, through commands
        # that today touch only a few of its values
        harm = store.path(FIXED_POTENTIALS["harmonic"])
        k = rng.randint(1, 50)
        cmds += [
            Command("quasi-inner", ("quasi-inner", "--potential", harm,
                                    "--samples", str(rng.randint(3, 8)),
                                    "--seed", str(rng.randint(0, 999)))),
            Command("stabilise", ("stabilise", "--potential", harm,
                                  "--base", f"H3(1,{-k},{-k})", "--radius", "2",
                                  "--radii", "0,1")),
        ]
        small = store.path(harmonic(rng.randint(10, 40)))
        cmds += [
            Command("character", ("character", "--potential", small,
                                  "--u", f"H3(1,{-k},{-k})",
                                  "--v", f"H3(0,{rng.randint(-2, 2)},0)")),
            Command("derive", ("derive", "--potential", small,
                               "--element", f"H3(0,{rng.randint(-2, 2)},0)")),
        ]
    return [replace(c, runs=20) for c in cmds]


WORKLOADS = {"search": search, "exact": exact, "batch": batch}


def build(workload, seed, pot_dir, smoke=False):
    """The command stream of `workload` for `seed`; writes its potential
    files under `pot_dir`.  Smoke streams run each command at most twice."""
    store = PotentialStore(pot_dir)
    rng = Random(f"{workload}:{seed}")
    cmds = WORKLOADS[workload](rng, store, smoke)
    store.write()
    if smoke:
        cmds = [replace(c, runs=min(c.runs, 2)) for c in cmds]
    return cmds
