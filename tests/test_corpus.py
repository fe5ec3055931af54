"""The golden byte corpora of every command.

`tests/data/potential_corpus.json` maps each argv of `derive`, `limit`,
`leibniz`, `character`, `quasi-inner`, `bound-probe` and `stabilise` to its
exit code and the sha256 of its stdout and stderr;
`tests/data/command_corpus.json` does the same for `graph`, `bc`,
`appendix` and `inverse-seq`.  The argv and the potential tables come from
`generate` and `generate_commands`, seeded generators, and are stored as
text so that a reader can see what runs.  Each table is written to
`<name>.json` in a scratch directory, and the argv name it relatively, so
no path reaches the output.  A case that names a `fault` runs with that
fault planted (`FAULTS`), so that the corpus holds exit 4 too.

`REFERENCES` runs them again with each fast path replaced by the path it
stands in for, and no digest may move; a new fast path adds a row there.

The digests were taken from the program as it stood when each corpus was
made.  A change that alters an output byte on purpose rewrites the files
in the same commit, so their diff lists every argv whose output moved:

    PYTHONPATH=src python tests/test_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random
from unittest import mock

from conjlab import cli
from conjlab import derivations as dv
from conjlab import graph
from conjlab.cli import _commands, main
from conjlab.groups import (DEFAULT_NODE_BUDGET, DirectProduct, FreeGroup, GroupModel,
                            Heisenberg, get_model)
from conjlab.groups import random_payload

DATA = Path(__file__).resolve().parent / "data"

SEED = 18
ROUNDS = 3  # sampled argv per command, exponent and table: this many times over
MODELS = ["h3", "free2", "free3", "dinf", "dsemi", "h3semi", "h3*dinf", "dinf*free2"]
EXPONENTS = ["1", "1.5", "2", "3", "inf"]
TRUNCATIONS = [1, 37, 1000]
# a value just past a 12-digit boundary, whose norm prints one unit low
MISPRINTED = {"model": "dinf", "table": [["a", "0.12345678901325000000000000001"]]}
# (a, b, c) cells of h3 tables; conjugation by (x, y, .) keeps (a, b) and
# adds x b - y a to c
FIBRES = {
    "h3_crowded": [(1, 0, c) for c in (-3, 0, 1, 2, 5)] + [(2, 1, c) for c in (0, 1, 4)]
                  + [(0, 0, 1), (0, 0, -2), (0, 1, 3)],
    "h3_collinear": [(1, 1, 0), (2, 2, 1), (-1, -1, 3), (3, 3, -2), (2, 2, 5),
                     (1, -2, 0), (2, -4, 1), (-1, 2, 2), (0, 0, 4), (0, 0, 0)],
    "h3_box": [(a, b, c) for a in (-1, 0, 2) for b in (-2, 0, 1) for c in (-1, 3)
               if (a + 2 * b + c) % 3],
}
# more h3 supports for the hit finder: seeded ones, one around c = 1 - 7^40,
# and one far from c = 0, on a crowded fibre and on lines through 0
MORE_FIBRES = {
    "h3_seeded_0": [(2, -4, -6366805760909027985741435139224000)],
    "h3_seeded_1": [(-3, 0, -6), (-3, 2, 1), (0, 0, 3), (0, 0, 6), (0, 3, 0)],
    "h3_seeded_2": [(-2, 0, 5), (3, -1, -2)],
    "h3_far": [(1, 0, c) for c in (300, 301, 303, 350)] + [(2, 1, c) for c in (-420, -418, -400)]
              + [(0, 0, 500), (1, 1, 999), (3, 3, -1500)],
}
# command argv, one a line: the free groups' conjugator length on free1,
# in both factors of a product, in a Growing verdict and for cyclic words
# that are not rotations; then h3 far from c = 0
MORE_COMMANDS = """\
bc --model free2 --k x1 --k x2.x1.x2^-1 --cayley-radius 4 --diam-budget 6
bc --model free2 --k x1 --k x2.x1.x2^-1 --cayley-radius 5 --diam-budget 8
bc --model free1 --k x1 --k x1^-1.x1^-1 --cayley-radius 3 --diam-budget 4
bc --model free3 --k x1.x2.x3 --k x3.x2.x1 --cayley-radius 2 --diam-budget 5
bc --model free2 --k x1.x2.x1.x2 --k x2.x1.x2.x1 --cayley-radius 3 --diam-budget 3 --budget-nodes 60
bc --model free2*free2 --k (x1|x2) --k (x2.x1.x2^-1|x1.x2.x1^-1) --cayley-radius 2 --diam-budget 4
bc --model free2 --k x1 --k x2.x1.x2^-1 --cayley-radius 3 --diam-budget 8
bc --model free2 --k x1.x1.x2.x2 --k x1.x2.x1.x2 --cayley-radius 1 --diam-budget 4
graph --model h3 --base H3(2,3,400) --radius 6 --format json
graph --model h3 --base H3(-1,4,-2500) --radius 4 --format dot
bc --model h3 --k H3(0,1,150) --k H3(0,1,153) --cayley-radius 2 --diam-budget 6
bc --model h3 --k H3(1,2,300) --k H3(1,2,306) --k H3(1,2,-2000) --cayley-radius 1 --diam-budget 5
inverse-seq --model h3 --u H3(2,1,150) --conjugator Ax.Ap --k-max 6
inverse-seq --model h3 --u H3(-3,2,-2200) --conjugator Ap --tail Ax --k-max 4 --format json
""".splitlines()
# tables and argv that lean on what changed between Python releases (float
# sums and formatting, values near the float range, Unicode digits, a
# newline in an element), then runs of every command on a two-point table
# and a harmonic one truncated at 20
PINNED_POTENTIALS = {
    "two_point": {"model": "h3", "table": [["H3(1,0,0)", "1"], ["H3(1,0,-1)", "1/2"]]},
    "harmonic_60": {"model": "h3", "table": [["H3(2,1,0)", "-3/7"]],
                    "closed_form": "appendix_harmonic", "truncation": 60},
    "dinf_four": {"model": "dinf", "table": [["ab", "1/2"], ["b", "1"], ["a", "-1"],
                                             ["e", "2/3"]]},
    "h3_extremes": {"model": "h3", "table": [["H3(1,0,0)", "1e300"], ["H3(0,1,0)", "-1e-300"]]},
    "harmonic_20": {"model": "h3", "table": [], "closed_form": "appendix_harmonic",
                    "truncation": 20},
}
PINNED_ARGV = [line.split() for line in """\
derive --potential harmonic_60.json --element H3(0,2,0) -p 2.5
derive --potential h3_extremes.json --element H3(0,1,0) -p 1.5
leibniz --potential two_point.json --samples 30 --seed 3
character --potential harmonic_60.json --u H3(1,-2,-2) --v H3(0,1,0)
quasi-inner --potential dinf_four.json --samples 30 --seed 5
stabilise --potential two_point.json --base H3(1,0,0) --radius 4 --radii 0,1,2
bound-probe --potential dinf_four.json --radius 2 -p 1.5
bound-probe --potential harmonic_60.json --radius 2 -p 3
bound-probe --potential h3_extremes.json --radius 1 -p 2
limit --potential two_point.json --conjugator Ax.Ap --q 2.5 --k-max 5 --format json
limit --potential h3_extremes.json --conjugator Ax --k-max 3
derive --potential two_point.json --element H3(1,2
derive --potential two_point.json --element H3(\u0661,0,0)
derive --potential harmonic_20.json --element H3(0,2,0)
leibniz --potential two_point.json --samples 20
character --potential harmonic_20.json --u H3(1,-2,-2) --v H3(0,1,0)
quasi-inner --potential two_point.json --samples 20
stabilise --potential two_point.json --base H3(1,0,0) --radius 3 --radii 0,1
bound-probe --potential harmonic_20.json --radius 2
limit --potential two_point.json --conjugator Ax --k-max 4
character --potential two_point.json --u H3(1,2,2) --v H3(0,2,0)
quasi-inner --potential two_point.json --samples 100
leibniz --potential two_point.json --samples 100
""".splitlines()] + [["derive", "--potential", "dinf_four.json", "--element", "ab\n"]]
# the same for the other commands, and the path of radius 5 through
# H3(1,0,0) in h3's conjugation graph
PINNED_COMMANDS = """\
graph --model h3semi --base H3(1,0,0);c --radius 2
graph --model free2 --base x1.x2 --radius 2 --format json --suppress-loops
bc --model dsemi --k a --k babab --cayley-radius 3 --diam-budget 6
bc --model h3 --k H3(1,0,0) --cayley-radius 3 --budget-nodes 2
appendix --m-max 12 --n-max 3
appendix --m-max 5 --n-max 2 --format json
inverse-seq --model free2 --u x1 --conjugator x2 --tail x1 --k-max 4 --budget 6
inverse-seq --model free2 --u x1.x2^-1 --conjugator x2.x1 --k-max 4 --budget 5 --format json
graph --model h3semi --base H3(1,0,0);c --radius 2 --format json
bc --model free2 --k x1 --k x2.x1.x2^-1 --cayley-radius 2 --diam-budget 4
appendix --m-max 8 --n-max 2
inverse-seq --model free2 --u x1 --conjugator x2 --k-max 3
inverse-seq --model free2 --u x1 --conjugator x1 --tail x2
graph --model h3 --base H3(1,0,0) --radius 5
""".splitlines()
# derive where g moves support cells onto other cells: on crowded fibres,
# on lines through 0, far from c = 0, and where two equal values meet, so
# that a coefficient of d(g) cancels
HIT_DERIVES = [line.split() for line in """\
derive --potential h3_crowded.json --element H3(3,3,0) -p 1
derive --potential h3_crowded.json --element H3(2,-1,5) -p 2
derive --potential h3_crowded.json --element H3(1,1,-2) -p inf
derive --potential h3_collinear.json --element H3(3,1,0) -p 1.5
derive --potential h3_collinear.json --element H3(0,2,1) -p 3
derive --potential h3_box.json --element H3(2,-2,0) -p 2
derive --potential h3_box.json --element H3(-2,-2,3) -p 1
derive --potential h3_far.json --element H3(2,2,0) -p 2
derive --potential h3_far.json --element H3(0,-1,7) -p inf
derive --potential h3_cancelling.json --element H3(1,1,0) -p 2
derive --potential h3_cancelling.json --element H3(0,1,0) -p 1
""".splitlines()]
# a graph ball whose only edge is a suppressed loop: an empty edge list
EMPTY_EDGES = ["graph", "--model", "free2", "--base", "x1", "--radius", "0", "--format", "json",
               "--suppress-loops"]
# bc on K with a pair in different abelian images: Cayley balls that spend
# the node budget where a search of depth --diam-budget could not, then
# distance searches that do spend it, below --diam-budget
APART_COMMANDS = """\
bc --model h3 --k H3(1,0,0) --k H3(0,1,0) --cayley-radius 2 --diam-budget 0 --budget-nodes 5
bc --model h3 --k H3(1,0,0) --k H3(1,0,5) --k H3(2,1,0) --cayley-radius 3 --diam-budget 1 --budget-nodes 20
bc --model dsemi --k a --k ab --cayley-radius 3 --diam-budget 1 --budget-nodes 7
bc --model dsemi --k a --k a;c --cayley-radius 2 --diam-budget 0 --budget-nodes 3
bc --model h3*dinf --k (H3(1,0,0)|a) --k (H3(1,0,0)|b) --cayley-radius 2 --diam-budget 1 --budget-nodes 11
bc --model h3*dinf --k (H3(0,1,0)|ab) --k (H3(0,1,3)|e) --cayley-radius 3 --diam-budget 2 --budget-nodes 120
bc --model h3 --k H3(1,0,0) --k H3(0,1,0) --cayley-radius 1 --diam-budget 6 --budget-nodes 8
bc --model h3 --k H3(1,0,0) --k H3(1,0,3) --k H3(0,1,0) --cayley-radius 1 --diam-budget 6 --budget-nodes 8
bc --model h3*dinf --k (H3(1,0,0)|a) --k (H3(0,1,0)|a) --cayley-radius 1 --diam-budget 4 --budget-nodes 12
bc --model free2 --k x1 --k x2 --cayley-radius 1 --diam-budget 5 --budget-nodes 10
bc --model h3semi --k H3(1,0,0) --k H3(1,0,0);c --cayley-radius 1 --diam-budget 5 --budget-nodes 12
""".splitlines()
# bc whose shells hold no AtLeast, end on no plateau and do not rise
# strictly over the last three radii: the verdict's last "Inconclusive"
INCONCLUSIVE_COMMANDS = """\
bc --model h3semi --k H3(1,0,0);c --k H3(0,1,0);c --cayley-radius 4 --diam-budget 8
bc --model h3semi --k H3(0,-1,1);c --k H3(1,-2,1);c --cayley-radius 3 --diam-budget 8
""".splitlines()
CHARACTER_10000 = [
    ("H3(1,-2,-2)", "H3(0,1,0)"), ("H3(1,-3,-3)", "H3(0,1,0)"),
    ("H3(1,-9999,-9999)", "H3(0,1,0)"), ("H3(1,-9999,-10000)", "H3(0,1,0)"),
    ("H3(1,-10000,-10000)", "H3(0,0,5)"), ("H3(1,-10001,-10001)", "H3(0,0,5)"),
    ("H3(2,1,0)", "H3(1,2,3)"), ("H3(3,3,3)", "H3(1,4,5)"), ("H3(1,-5,-5)", "e"),
    ("H3(1,2", "e"),
]


def _value(rng):
    """A nonzero rational as a table writes it: n/d, or a short decimal."""
    if rng.random() < 0.2:
        return rng.choice(["0.125", "-2.5", "1e-3", "-7.75", "3"])
    num = rng.choice([n for n in range(-9, 10) if n])
    return str(Fraction(num, rng.randint(1, 12)))


def _table(model, rng, size, max_len=6):
    """`size` rows on distinct elements of infinite conjugacy classes, so
    that `limit` takes the table."""
    rows = {}
    while len(rows) < size:
        p = random_payload(model, rng, max_len)
        if not model.class_is_finite(p):
            rows.setdefault(model.encode_payload(p), _value(rng))
    return [[enc, v] for enc, v in rows.items()]


def _word(model, rng):
    """A dotted conjugator word of one to three generator labels."""
    labels = [label for label, _, _ in model.gen_triples]
    return ".".join(rng.choice(labels) for _ in range(rng.randint(1, 3)))


def _cases(rng, name, model, exact):
    """The argv of every potential command on the table `name` of `model`."""
    pot = ["--potential", f"{name}.json"]

    def elem():
        return model.encode_payload(random_payload(model, rng))

    out = []
    for _ in range(ROUNDS):
        for p in EXPONENTS:
            out.append(["derive", *pot, "--element", elem(), "-p", p])
            out.append(["bound-probe", *pot, "--radius", str(rng.randint(0, 2)), "-p", p])
            out.append(["limit", *pot, "--conjugator", _word(model, rng), "--q", p,
                        "--k-max", str(rng.randint(1, 5)),
                        "--format", rng.choice(["json", "table"])])
        for _ in range(3):
            out.append(["character", *pot, "--u", elem(), "--v", elem()])
        for _ in range(2):
            out.append(["leibniz", *pot, "--samples", str(rng.randint(1, 12 if exact else 3)),
                        "--seed", str(rng.randint(0, 99))])
            out.append(["quasi-inner", *pot, "--samples", str(rng.randint(1, 40)),
                        "--seed", str(rng.randint(0, 99))])
            out.append(["stabilise", *pot, "--base", elem(), "--radius", str(rng.randint(1, 3)),
                        "--radii", rng.choice(["0", "0,1", "0,1,2", "1,3"])])
    # usage errors: a bad element, a norm exponent below 1, radii out of order
    out.append(["derive", *pot, "--element", "(", "-p", "2"])
    out.append(["bound-probe", *pot, "--radius", "1", "-p", "0.5"])
    out.append(["stabilise", *pot, "--base", elem(), "--radius", "2", "--radii", "1,0"])
    # budgets: the ball runs out of nodes
    out.append(["bound-probe", *pot, "--radius", "3", "--budget-nodes", "4"])
    out.append(["stabilise", *pot, "--base", elem(), "--radius", "4", "--radii", "0,2",
                "--budget-nodes", "3"])
    return out


def generate():
    """(potentials, argv): the named tables and the argv that run on them."""
    rng = Random(SEED)
    potentials, argv = {}, []
    for name in MODELS:
        model = get_model(name)
        key = name.replace("*", "_x_")
        potentials[key] = {"model": name, "table": _table(model, rng, 6)}
        argv += _cases(rng, key, model, exact=True)
    h3 = get_model("h3")
    for k in TRUNCATIONS:
        key = f"harmonic_{k}"
        table = [["H3(2,1,0)", "-3/7"]] if k == 37 else []
        potentials[key] = {"model": "h3", "table": table,
                           "closed_form": "appendix_harmonic", "truncation": k}
        argv += _cases(rng, key, h3, exact=False)
    potentials["h3_large"] = {"model": "h3", "table": _table(h3, rng, 300, max_len=10)}
    for q in EXPONENTS:
        argv.append(["limit", "--potential", "h3_large.json", "--conjugator", _word(h3, rng),
                     "--q", q, "--k-max", str(rng.randint(1, 4)), "--format", "json"])
    potentials["dinf_misprinted"] = MISPRINTED
    argv.append(["derive", "--potential", "dinf_misprinted.json", "--element", "b", "-p", "1"])
    # a finite conjugacy class in the support, and a closed form off h3
    potentials["h3_central"] = {"model": "h3", "table": [["H3(0,0,1)", "1"]]}
    argv.append(["limit", "--potential", "h3_central.json", "--conjugator", "Ax"])
    potentials["free2_harmonic"] = {"model": "free2", "table": [],
                                    "closed_form": "appendix_harmonic"}
    argv.append(["derive", "--potential", "free2_harmonic.json", "--element", "x1"])
    # h3 tables by (a, b) fibre, the key of bound-probe's hit finder: crowded
    # fibres, the central one, and several fibres on one line through 0
    for key, cells in FIBRES.items():
        potentials[key] = {"model": "h3", "table": [
            [f"H3({a},{b},{c})", _value(rng)] for a, b, c in cells]}
        for radius in ("3", "4"):
            argv += [["bound-probe", "--potential", f"{key}.json", "--radius", radius, "-p", p]
                     for p in EXPONENTS]
    for k in (37, 1000):
        argv.append(["bound-probe", "--potential", f"harmonic_{k}.json", "--radius", "4",
                     "-p", rng.choice(EXPONENTS)])
    # character at the default truncation: hits on either side, at the cutoff
    # and past it, on the table entry, and none
    potentials["harmonic_10000"] = {"model": "h3", "table": [["H3(2,1,0)", "-3/7"]],
                                    "closed_form": "appendix_harmonic", "truncation": 10**4}
    for u, v in CHARACTER_10000:
        argv.append(["character", "--potential", "harmonic_10000.json", "--u", u, "--v", v])
    # limit where a^k moves support cells onto other cells (Ax^k adds -k a to
    # c, Ap^k adds k b): the fibre tables off the central fibre, which limit
    # refuses, and a table with two equal values on a hit, so that a
    # coefficient of d(a^k) cancels; then values around and past the float
    # range, where the norm takes float_norm's fallback or exceeds the range
    for key in FIBRES:
        potentials[f"{key}_off_centre"] = {"model": "h3", "table": [
            row for row in potentials[key]["table"] if not row[0].startswith("H3(0,0,")]}
    potentials["h3_cancelling"] = {"model": "h3", "table": [
        ["H3(1,0,0)", "1"], ["H3(1,0,-1)", "1"], ["H3(1,0,-2)", "1/2"]]}
    potentials["h3_huge"] = {"model": "h3", "table": [
        ["H3(1,0,0)", "1e308"], ["H3(1,0,-1)", "-5e307"], ["H3(1,0,-2)", "3e200"],
        ["H3(2,1,0)", "1e-330"], ["H3(2,1,1)", "-7e-200"], ["H3(0,1,3)", "5/3"]]}
    potentials["h3_past_float"] = {"model": "h3", "table": [
        ["H3(1,0,0)", "1e400"], ["H3(1,0,-1)", "2"]]}
    for key in [f"{key}_off_centre" for key in FIBRES] + [
            "h3_cancelling", "h3_huge", "h3_past_float"]:
        for conjugator in ("Ax", "Ap"):
            argv += [["limit", "--potential", f"{key}.json", "--conjugator", conjugator,
                      "--q", q, "--k-max", "6", "--format", rng.choice(["json", "table"])]
                     for q in EXPONENTS]
    # bound-probe on more hit-finder tables, and the harmonic rule with a
    # table entry that it does not cover
    for key, cells in MORE_FIBRES.items():
        potentials[key] = {"model": "h3", "table": [
            [f"H3({a},{b},{c})", _value(rng)] for a, b, c in cells]}
    for k in (37, 200):
        potentials[f"harmonic_{k}_table"] = {
            "model": "h3", "table": [["H3(2,1,0)", "-3/7"], ["H3(1,-3,-2)", "5"]],
            "closed_form": "appendix_harmonic", "truncation": k}
    for key in [*MORE_FIBRES, "harmonic_37_table", "harmonic_200_table"]:
        argv += [["bound-probe", "--potential", f"{key}.json", "--radius", radius, "-p", p]
                 for radius in ("2", "3", "4") for p in EXPONENTS]
    # c in the hundreds and thousands: conjugation still shifts c by x b - y a
    for base, radius, radii in (("H3(1,0,300)", "5", "0,1,3"), ("H3(2,1,-410)", "6", "0,2,4"),
                                ("H3(1,1,995)", "5", "0,1,3"), ("H3(3,3,-1497)", "3", "0,1,2")):
        argv.append(["stabilise", "--potential", "h3_far.json", "--base", base,
                     "--radius", radius, "--radii", radii])
    potentials.update(PINNED_POTENTIALS)
    argv += PINNED_ARGV + HIT_DERIVES
    return potentials, [{"argv": a} for a in argv]


COMMAND_SEED = 19
COMMAND_ROUNDS = 5


def _planted_short_rule():
    """The harmonic rule and its support truncated one term early: the
    appendix engine's coefficient then disagrees with the formula's at
    m = m_max and the largest n computed."""
    value, support = dv._harmonic_value, dv._harmonic_support
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(dv, "_harmonic_value", lambda p, k: value(p, k - 1)))
    stack.enter_context(mock.patch.object(dv, "_harmonic_support", lambda k: support(k - 1)))
    return stack


FAULTS = {"short_rule": _planted_short_rule}


def _command_cases(rng, name, model):
    """The argv of `graph`, `bc` and `inverse-seq` on `model`."""
    on = ["--model", name]

    def elem(max_len=4):
        return model.encode_payload(random_payload(model, rng, max_len))

    def k_set():
        return [a for _ in range(rng.randint(1, 3)) for a in ("--k", elem(3))]

    out = []
    for _ in range(COMMAND_ROUNDS):
        for fmt in ("dot", "json"):
            for loops in ([], ["--suppress-loops"]):
                out.append(["graph", *on, "--base", elem(), "--radius", str(rng.randint(0, 3)),
                            "--format", fmt, *loops])
                # a node budget the ball spends: `complete` is false
                out.append(["graph", *on, "--base", elem(), "--radius", "4", "--format", fmt,
                            *loops, "--budget-nodes", str(rng.randint(0, 6))])
        out.append(["bc", *on, *k_set(), "--cayley-radius", str(rng.randint(0, 3)),
                    "--diam-budget", str(rng.randint(0, 6))])
        # distance searches that may spend the node budget: AtLeast diameters
        out.append(["bc", *on, *k_set(), "--cayley-radius", str(rng.randint(1, 2)),
                    "--diam-budget", "6", "--budget-nodes", str(rng.randint(20, 60))])
        for fmt in ("table", "json"):
            out.append(["inverse-seq", *on, "--u", elem(), "--conjugator", _word(model, rng),
                        "--tail", rng.choice(["e", _word(model, rng)]),
                        "--k-max", str(rng.randint(0, 5)), "--budget", str(rng.randint(0, 6)),
                        "--format", fmt])
        out.append(["inverse-seq", *on, "--u", elem(), "--conjugator", _word(model, rng),
                    "--k-max", "3", "--budget", "6", "--budget-nodes", str(rng.randint(1, 30))])
    # usage errors: bad encodings and an unknown generator
    out.append(["graph", *on, "--base", "(", "--radius", "1"])
    out.append(["bc", *on, "--k", elem(), "--k", "H3(1,2"])
    out.append(["inverse-seq", *on, "--u", elem(), "--conjugator", "z"])
    out.append(["inverse-seq", *on, "--u", "x0", "--conjugator", _word(model, rng)])
    # budgets: the Cayley ball of radius 3 has more than 6 nodes in every model
    out.append(["bc", *on, *k_set(), "--cayley-radius", "3",
                "--budget-nodes", str(rng.randint(0, 6))])
    return out


def generate_commands():
    """(potentials, cases) of the command corpus: no potentials, and the
    argv of `graph`, `bc`, `appendix` and `inverse-seq`."""
    rng = Random(COMMAND_SEED)
    argv = []
    for name in MODELS:
        argv += _command_cases(rng, name, get_model(name))
    # h3's conjugation graph is a line through each vertex: long paths
    h3 = get_model("h3")
    for radius in ("12", "40"):
        for fmt in ("dot", "json"):
            base = h3.encode_payload(random_payload(h3, rng, 6))
            argv.append(["graph", "--model", "h3", "--base", base, "--radius", radius,
                         "--format", fmt])
    for _ in range(ROUNDS):
        for fmt in ("table", "json"):
            argv.append(["appendix", "--m-max", str(rng.randint(1, 64)),
                         "--n-max", str(rng.randint(1, 4)), "--format", fmt])
    argv.append(["appendix"])  # m_max 64, n_max 1, table
    # usage errors: counts below 1, and a model that does not parse
    argv += [["appendix", "--m-max", "0"], ["appendix", "--n-max", "0", "--format", "json"],
             ["appendix", "--m-max", "-2"], ["graph", "--model", "h4", "--base", "e",
                                             "--radius", "1"],
             ["bc", "--model", "free0", "--k", "e"]]
    cases = [{"argv": a} for a in argv]
    # exit 4: the engine and the formula disagree
    cases += [{"argv": ["appendix", "--m-max", m, "--n-max", n, "--format", fmt],
               "fault": "short_rule"} for m, n, fmt in (("5", "3", "json"), ("9", "4", "table"))]
    # free groups and their products, where the conjugator length answers
    # without a search, and h3 with c in the hundreds and thousands
    cases += [{"argv": line.split()} for line in MORE_COMMANDS + [
        f"inverse-seq --model {case} --format {fmt} {rest}" for fmt in ("json", "table")
        for case, rest in [
            ("free2 --u x1 --conjugator x2 --tail x1", "--k-max 4 --budget 6"),
            ("free2 --u x1.x2.x1^-1 --conjugator x2.x1 --tail e", "--k-max 5 --budget 8"),
            ("free1 --u x1 --conjugator x1 --tail x1^-1", "--k-max 3 --budget 2"),
            ("free3 --u x1.x3 --conjugator x2 --tail x3", "--k-max 3 --budget 5"),
            ("free2*free2 --u (x1|x2) --conjugator l.x2.r.x1 --tail e", "--k-max 3 --budget 4")]]]
    cases += [{"argv": line.split()} for line in PINNED_COMMANDS] + [{"argv": EMPTY_EDGES}]
    cases += [{"argv": line.split()} for line in APART_COMMANDS + INCONCLUSIVE_COMMANDS]
    return {}, cases


CORPORA = {"potential": (DATA / "potential_corpus.json", generate),
           "command": (DATA / "command_corpus.json", generate_commands)}


def write_potentials(potentials, directory):
    for name, data in potentials.items():
        (Path(directory) / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_in_process(argv) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, _sha(out.getvalue()), _sha(err.getvalue())]


def run_case(case) -> list:
    """`run_in_process` of the case's argv, with its fault planted, if any."""
    with FAULTS[case["fault"]]() if "fault" in case else contextlib.nullcontext():
        return run_in_process(case["argv"])


def load_corpus(name="potential"):
    return json.loads(CORPORA[name][0].read_text(encoding="utf-8"))


def moved(corpus, got) -> list:
    """The argv of the cases whose [exit code, stdout digest, stderr digest]
    in `got` differ from the corpus's."""
    return [case["argv"] for case, have in zip(corpus["cases"], got, strict=True)
            if have != [case["exit"], case["stdout"], case["stderr"]]]


def _unrun(case) -> dict:
    """A stored case without its outcome: what the generator makes."""
    return {k: v for k, v in case.items() if k not in ("exit", "stdout", "stderr")}


def test_the_generator_makes_the_stored_argv(name):
    corpus = load_corpus(name)
    potentials, cases = CORPORA[name][1]()
    assert corpus["potentials"] == potentials
    assert list(map(_unrun, corpus["cases"])) == cases


def test_the_corpus_covers_every_potential_command():
    cases = load_corpus()["cases"]
    assert {case["argv"][0] for case in cases} == {
        "derive", "limit", "leibniz", "character", "quasi-inner", "bound-probe", "stabilise"}
    assert {case["exit"] for case in cases} == {0, 2, 3}
    for flag in ("-p", "--q"):
        exponents = {case["argv"][case["argv"].index(flag) + 1] for case in cases
                     if flag in case["argv"] and case["exit"] == 0}
        assert exponents == {*EXPONENTS, "2.5"}, flag


def test_the_command_corpus_covers_every_other_command():
    cases = load_corpus("command")["cases"]
    assert {case["exit"] for case in cases} == {0, 2, 3, 4}
    runs = {}
    for case in cases:
        argv = case["argv"]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
        runs.setdefault(argv[0], set()).add((case["exit"], fmt))
    assert set(runs) == {"graph", "bc", "appendix", "inverse-seq"}
    assert {("dot", 0), ("json", 0)} <= {(fmt, code) for code, fmt in runs["graph"]}
    for command in ("appendix", "inverse-seq"):
        assert {(0, "table"), (0, "json")} <= runs[command]
    assert {code for code, _ in runs["bc"]} == {0, 2, 3}
    models = {case["argv"][2] for case in cases if case["exit"] == 0 and "--model" in case["argv"]}
    assert models == {*MODELS, "free1", "free2*free2"}
    # a ball cut by its node budget
    assert any(case["argv"][0] == "graph" and case["exit"] == 0 and "--budget-nodes" in case["argv"]
               for case in cases)
    # with the potential corpus, every command of the command table runs to exit 0
    ran = {case["argv"][0] for name in CORPORA for case in load_corpus(name)["cases"]
           if case["exit"] == 0}
    assert ran == set(_commands(DEFAULT_NODE_BUDGET))


def digests_moved(name) -> list:
    """The argv of corpus `name` whose outcome, run in the current
    directory, differs from the stored one."""
    corpus = load_corpus(name)
    write_potentials(corpus["potentials"], ".")
    return moved(corpus, [run_case(case) for case in corpus["cases"]])


def test_every_output_matches_its_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONJLAB_DEFAULT_BUDGET", raising=False)
    assert digests_moved(name) == []


def _image_by_apply(phi, gp):
    """`Potential.image` by `Derivation.apply`: d(g) added term by term into
    a dict, then its rows and its coefficients."""
    image = dv.Derivation(phi).apply(gp)
    return image.to_json(), list(image.terms.values())


def _rows_as_lists(self, nl):
    """`_Rows.pieces` by the writer's generic path, over the rows as lists."""
    return cli._json_pieces([list(row) for row in self.rows], nl)


# name: (owner, fast path, reference, applies(command, model)); a reference is
# the base class's path, for the gate a search every time, for bc's apart K
# the per-image loop, for derive's image
# the dict of terms, and for the row writer the generic list path
REFERENCES = {
    "h3-mul_all": (Heisenberg, "mul_all", GroupModel.mul_all, lambda c, m: m == "h3"),
    "h3-conj_step": (Heisenberg, "conj_step", GroupModel.conj_step, lambda c, m: m == "h3"),
    "h3-conj_hits": (Heisenberg, "conj_hits", GroupModel.conj_hits, lambda c, m: m == "h3"),
    "free-conjugator_length": (FreeGroup, "conjugator_length", GroupModel.conjugator_length,
                               lambda c, m: "free" in m),
    "product-conjugator_length": (DirectProduct, "conjugator_length",
                                  GroupModel.conjugator_length, lambda c, m: "*" in m),
    "levels_fit": (graph, "_levels_fit", lambda *args: False,
                   lambda c, m: c in ("bc", "inverse-seq")),
    "bc-apart": (graph, "_apart", lambda *args: False, lambda c, m: c == "bc"),
    "derive-hit_column": (dv.Potential, "image", _image_by_apply, lambda c, m: c == "derive"),
    "rows-writer": (cli._Rows, "pieces", _rows_as_lists, lambda c, m: c in ("derive", "graph")),
}


def _model(potentials, argv) -> str:
    """The model an argv runs on: its `--model`, its potential's, or h3."""
    if "--model" in argv:
        return argv[argv.index("--model") + 1]
    if "--potential" in argv:
        return potentials[argv[argv.index("--potential") + 1].removesuffix(".json")]["model"]
    return "h3"


def pytest_generate_tests(metafunc):
    # one case a row, without importing pytest, which other Pythons lack
    for arg, values in (("row", REFERENCES), ("name", CORPORA)):
        if arg in metafunc.fixturenames:
            metafunc.parametrize(arg, values)


def test_every_fast_path_gives_its_references_bytes(row, tmp_path, monkeypatch):
    owner, name, reference, applies = REFERENCES[row]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONJLAB_DEFAULT_BUDGET", raising=False)
    cases = []
    for corpus in map(load_corpus, CORPORA):
        write_potentials(corpus["potentials"], tmp_path)
        cases += [case for case in corpus["cases"]
                  if applies(case["argv"][0], _model(corpus["potentials"], case["argv"]))]
    # the plain run reaches the fast path, and it answers neither None nor False
    fast, reached = getattr(owner, name), False

    def spy(*args, **kwargs):
        nonlocal reached
        answer = fast(*args, **kwargs)
        reached |= answer is not None and answer is not False
        return answer

    monkeypatch.setattr(owner, name, spy)
    for case in cases:
        run_case(case)
        if reached:
            break
    assert reached, row
    monkeypatch.setattr(owner, name, reference)
    assert moved({"cases": cases}, list(map(run_case, cases))) == []


def _dump(potentials, cases) -> str:
    """The corpus file: one potential and one case a line."""
    def block(lines):
        return ",\n".join("    " + line for line in lines)

    pots = block(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in potentials.items())
    pots = f"{{\n{pots}\n  }}" if potentials else "{}"
    rows = block(json.dumps(case) for case in cases)
    return f'{{\n  "potentials": {pots},\n  "cases": [\n{rows}\n  ]\n}}\n'


def rewrite():
    """Run every generated case in the current directory and write the
    corpus files from what it printed."""
    for path, make in CORPORA.values():
        potentials, cases = make()
        write_potentials(potentials, ".")
        done = [{**case, **dict(zip(["exit", "stdout", "stderr"], run_case(case)))}
                for case in cases]
        path.write_text(_dump(potentials, done), encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("CONJLAB_DEFAULT_BUDGET", None)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        rewrite()
