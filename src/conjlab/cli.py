"""Command-line front door.

Every command prints deterministic output for identical inputs: JSON with
sorted keys, floats at 12 significant digits, element encodings straight
from the models.

Exit codes: 0 success, 2 usage/parse error, 3 resource budget exceeded,
4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random

from . import derivations as dv
from . import experiments as ex
from . import graph as cg
from .errors import InternalConsistencyError, ResourceBudgetError, UsageError
from .groups import get_model, parse_word
from .ring import exact_str


def _count(text: str) -> int:
    """argparse type of counts (radii, budgets, samples): an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _default_node_budget() -> int:
    raw = os.environ.get("CONJLAB_DEFAULT_BUDGET")
    try:
        return _count(raw) if raw else 10**6
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad CONJLAB_DEFAULT_BUDGET: {raw!r}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2))


def _print_report(report, fmt) -> None:
    if fmt == "table":
        sys.stdout.write(report.to_table())
    else:
        _emit(report.to_json())


def _load_potential(path) -> dv.Potential:
    try:
        return dv.Potential.load(path)
    except (OSError, ValueError) as exc:  # UsageError and JSON errors too
        raise UsageError(f"cannot load potential file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands


def cmd_graph(args) -> int:
    model = get_model(args.model)
    base = model.decode(args.base)
    ball = cg.explore_component(model, base, args.radius, args.budget_nodes)
    if args.format == "dot":
        sys.stdout.write(cg.export_dot(ball, suppress_loops=args.suppress_loops))
    else:
        data = ball.to_json()
        if args.suppress_loops:
            data["edges"] = [e for e in data["edges"] if e[0] != e[2]]
        _emit(data)
    return 0


def cmd_bc(args) -> int:
    model = get_model(args.model)
    K = [model.decode(enc) for enc in args.k]
    report = cg.bc_probe(
        model, K, args.cayley_radius, args.diam_budget, args.budget_nodes
    )
    _emit(report.to_json())
    return 0


def cmd_derive(args) -> int:
    phi = _load_potential(args.potential)
    g = phi.model.decode(args.element)
    d = dv.Derivation(phi)
    image = d.apply(g)
    _emit(
        {
            "element": g.encode(),
            "image": image.to_json(),
            "norm_p": ex.fmt_float(image.lp_norm(args.p)),
            "p": ex.fmt_float(args.p),
            "exact": phi.is_exact(),
            "truncation": None if phi.is_exact() else phi.trunc_k,
        }
    )
    return 0


def cmd_leibniz(args) -> int:
    phi = _load_potential(args.potential)
    d = dv.Derivation(phi)
    rng = Random(args.seed)
    from .sampling import random_element

    violations = 0
    worst = 0.0
    for _ in range(args.samples):
        g = random_element(phi.model, rng)
        h = random_element(phi.model, rng)
        res = dv.leibniz_residual(d, g, h)
        worst = max(worst, res.lp_norm(1))
        if not res.is_zero():
            violations += 1
    print(f"{violations} violations in {args.samples} samples "
          f"(max residual {ex.fmt_float(worst)})")
    return 0


def cmd_character(args) -> int:
    phi = _load_potential(args.potential)
    model = phi.model
    mor = dv.Morphism(model.decode(args.u), model.decode(args.v))
    val = dv.character_from_potential(phi, mor)
    cross = dv.character_from_derivation(dv.Derivation(phi), mor)
    if cross != val:
        raise InternalConsistencyError(
            f"character mismatch at ({args.u},{args.v}): "
            f"potential {val} vs derivation {cross}"
        )
    _emit({"u": args.u, "v": args.v, "value": exact_str(val)})
    return 0


def cmd_quasi_inner(args) -> int:
    phi = _load_potential(args.potential)
    rng = Random(args.seed)
    from .sampling import random_loop

    loops = [random_loop(phi.model, rng) for _ in range(args.samples)]
    ok, witness = dv.quasi_inner_check(phi, loops)
    out = {"ok": ok, "loops": args.samples}
    if witness is not None:
        mor, val = witness
        out["witness"] = {
            "u": mor.u.encode(),
            "v": mor.v.encode(),
            "value": exact_str(val),
        }
    _emit(out)
    return 0


def cmd_stabilise(args) -> int:
    phi = _load_potential(args.potential)
    model = phi.model
    base = model.decode(args.base)
    if args.radii != sorted(set(args.radii)):
        raise UsageError("--radii must be increasing")
    ball = cg.explore_component(model, base, args.radius, args.budget_nodes)
    probe = dv.stabilisation_probe(phi, ball, args.radii)
    _emit(
        {
            "base": base.encode(),
            "radius": args.radius,
            "complete": ball.complete,
            "rows": [[r, exact_str(s)] for r, s in probe],
        }
    )
    return 0


def cmd_bound_probe(args) -> int:
    phi = _load_potential(args.potential)
    d = dv.Derivation(phi)
    max_norm, argmax = dv.g_boundedness_probe(
        d, phi.model, args.radius, args.p, args.budget_nodes
    )
    _emit(
        {
            "radius": args.radius,
            "p": ex.fmt_float(args.p),
            "max_norm": ex.fmt_float(max_norm),
            "argmax": argmax.encode(),
        }
    )
    return 0


def cmd_appendix(args) -> int:
    report = ex.run_appendix(args.m_max, args.n_max)
    _print_report(report, args.format)
    return 0


def cmd_limit(args) -> int:
    phi = _load_potential(args.potential)
    word = parse_word(phi.model, args.conjugator)
    report = ex.run_limit_experiment(phi, word, args.q, args.k_max)
    _print_report(report, args.format)
    return 0


def cmd_inverse_seq(args) -> int:
    model = get_model(args.model)
    u = model.decode(args.u)
    word = parse_word(model, args.conjugator)
    tail = parse_word(model, args.tail)
    report = ex.run_inverse_sequence_check(
        model, u, word, args.k_max, args.budget, tail_word=tail,
        node_budget=args.budget_nodes,
    )
    _print_report(report, args.format)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _radii(text: str) -> list:
    """argparse type of --radii: comma-separated counts."""
    return [_count(tok) for tok in text.split(",")]


def _arg(*flags, **kwargs):
    """One `add_argument` call: its option strings and keywords."""
    return flags, kwargs


def _commands(node_budget: int) -> dict:
    """Every subcommand, in help order: name -> (handler, help, arguments).

    Built per call, so the handlers are read from the module when the
    parser is built and the node-budget default is the current one.
    """
    model = _arg("--model", required=True)
    potential = _arg("--potential", required=True)
    base = _arg("--base", required=True)
    radius = _arg("--radius", type=_count, required=True)
    budget = _arg("--budget-nodes", type=_count, default=node_budget)
    p_exp = _arg("-p", type=float, default=2.0)
    seed = _arg("--seed", type=int, default=0)
    report = _arg("--format", choices=["json", "table"], default="table")
    return {
        "graph": (cmd_graph, "explore a conjugation-graph ball", [
            model, base, radius,
            _arg("--suppress-loops", action="store_true"),
            _arg("--format", choices=["dot", "json"], default="dot"),
            budget,
        ]),
        "bc": (cmd_bc, "probe the bounded-conjugation condition", [
            model,
            _arg("--k", action="append", required=True,
                 help="element of K (repeatable)"),
            _arg("--cayley-radius", type=_count, default=6),
            _arg("--diam-budget", type=_count, default=32),
            budget,
        ]),
        "derive": (cmd_derive, "apply the potential's derivation", [
            potential, _arg("--element", required=True), p_exp,
        ]),
        "leibniz": (cmd_leibniz, "sampled Leibniz-rule residuals", [
            potential, _arg("--samples", type=_count, default=500), seed,
        ]),
        "character": (cmd_character, "evaluate the character chi(u,v)", [
            potential, _arg("--u", required=True), _arg("--v", required=True),
        ]),
        "quasi-inner": (cmd_quasi_inner,
                        "check the character vanishes on sampled loops", [
            potential, _arg("--samples", type=_count, default=100), seed,
        ]),
        "stabilise": (cmd_stabilise,
                      "sup |phi| outside growing radii of a component ball", [
            potential, base, radius,
            _arg("--radii", type=_radii, required=True,
                 help="comma-separated radii"),
            budget,
        ]),
        "bound-probe": (cmd_bound_probe, "max ||d(g)||_p over a Cayley ball", [
            potential, radius, p_exp, budget,
        ]),
        "appendix": (cmd_appendix,
                     "unbounded inner derivation certificate table", [
            _arg("--m-max", type=int, default=64),
            _arg("--n-max", type=int, default=1),
            report,
        ]),
        "limit": (cmd_limit, "norm limit under conjugator powers", [
            potential,
            _arg("--conjugator", required=True),
            _arg("--q", type=float, default=2.0),
            _arg("--k-max", type=int, default=8),
            report,
        ]),
        "inverse-seq": (cmd_inverse_seq,
                        "forward vs backward conjugation distances", [
            model,
            _arg("--u", required=True),
            _arg("--conjugator", required=True),
            _arg("--tail", default="e",
                 help="fixed word appended to each conjugator power"),
            _arg("--k-max", type=_count, default=8),
            _arg("--budget", type=_count, default=32),
            report,
            budget,
        ]),
    }


def _command_parser(parser, fn, arguments) -> argparse.ArgumentParser:
    """`parser` with a command's handler and arguments added."""
    parser.set_defaults(fn=fn)
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    return parser


def build_parser(node_budget: int) -> argparse.ArgumentParser:
    """The full conjlab parser: every subcommand under one top level."""
    parser = argparse.ArgumentParser(prog="conjlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in _commands(node_budget).items():
        _command_parser(sub.add_parser(name, help=help_text), fn, arguments)
    return parser


def parse(argv, node_budget: int) -> argparse.Namespace:
    """The namespace of `argv`, as `build_parser` reads it.

    A named command is parsed by its own parser alone, built as its
    subparser would be: argparse formats help inside every `add_argument`,
    so the full tree costs a short command more than its own work.  Any
    other argv, or an argument the command leaves over, goes to the full
    tree, so top-level help and errors list every command.
    """
    commands = _commands(node_budget)
    if argv and argv[0] in commands:
        fn, _, arguments = commands[argv[0]]
        parser = argparse.ArgumentParser(prog=f"conjlab {argv[0]}")
        # `command` comes first in the namespace, as in the full tree's
        args, rest = _command_parser(parser, fn, arguments).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser(node_budget).parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse(argv, _default_node_budget())
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped reading (`| head`); point stdout at devnull so
        # the flush at exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc} "
              f"(partial count {exc.partial_count})", file=sys.stderr)
        return 3
    except MemoryError:
        # a last resort: the kernel's OOM killer may act before Python can
        print("resource budget exceeded: out of memory", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
