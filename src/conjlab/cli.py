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
    d = dv.Derivation.from_potential(phi)
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
    d = dv.Derivation.from_potential(phi)
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
    cross = dv.character_from_derivation(dv.Derivation.from_potential(phi), mor)
    if cross.im != 0 or cross.re != val:
        raise InternalConsistencyError(
            f"character mismatch at ({args.u},{args.v}): "
            f"potential {val} vs derivation {cross}"
        )
    _emit({"u": args.u, "v": args.v, "value": str(val)})
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
            "value": str(val),
        }
    _emit(out)
    return 0


def cmd_stabilise(args) -> int:
    phi = _load_potential(args.potential)
    model = phi.model
    base = model.decode(args.base)
    ball = cg.explore_component(model, base, args.radius, args.budget_nodes)
    if args.radii != sorted(args.radii):
        raise UsageError("--radii must be increasing")
    probe = dv.stabilisation_probe(phi, ball, args.radii)
    _emit(
        {
            "base": base.encode(),
            "radius": args.radius,
            "complete": ball.complete,
            "rows": [[r, str(s)] for r, s in probe],
        }
    )
    return 0


def cmd_bound_probe(args) -> int:
    phi = _load_potential(args.potential)
    d = dv.Derivation.from_potential(phi)
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
        model, u, word, args.k_max, args.budget, tail_word=tail
    )
    _print_report(report, args.format)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _radii(text: str) -> list:
    return [int(tok) for tok in text.split(",")]


def build_parser(node_budget: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conjlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("graph", cmd_graph, help="explore a conjugation-graph ball")
    p.add_argument("--model", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--radius", type=_count, required=True)
    p.add_argument("--suppress-loops", action="store_true")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--budget-nodes", type=_count, default=node_budget)

    p = add("bc", cmd_bc, help="probe the bounded-conjugation condition")
    p.add_argument("--model", required=True)
    p.add_argument("--k", action="append", required=True,
                   help="element of K (repeatable)")
    p.add_argument("--cayley-radius", type=_count, default=6)
    p.add_argument("--diam-budget", type=_count, default=32)
    p.add_argument("--budget-nodes", type=_count, default=node_budget)

    p = add("derive", cmd_derive, help="apply the potential's derivation")
    p.add_argument("--potential", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("-p", type=float, default=2.0)

    p = add("leibniz", cmd_leibniz, help="sampled Leibniz-rule residuals")
    p.add_argument("--potential", required=True)
    p.add_argument("--samples", type=_count, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = add("character", cmd_character, help="evaluate the character chi(u,v)")
    p.add_argument("--potential", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("quasi-inner", cmd_quasi_inner,
            help="check the character vanishes on sampled loops")
    p.add_argument("--potential", required=True)
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("stabilise", cmd_stabilise,
            help="sup |phi| outside growing radii of a component ball")
    p.add_argument("--potential", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--radius", type=_count, required=True)
    p.add_argument("--radii", type=_radii, required=True,
                   help="comma-separated radii")
    p.add_argument("--budget-nodes", type=_count, default=node_budget)

    p = add("bound-probe", cmd_bound_probe,
            help="max ||d(g)||_p over a Cayley ball")
    p.add_argument("--potential", required=True)
    p.add_argument("--radius", type=_count, required=True)
    p.add_argument("-p", type=float, default=2.0)
    p.add_argument("--budget-nodes", type=_count, default=node_budget)

    p = add("appendix", cmd_appendix,
            help="unbounded inner derivation certificate table")
    p.add_argument("--m-max", type=int, default=64)
    p.add_argument("--n-max", type=int, default=1)
    p.add_argument("--format", choices=["json", "table"], default="table")

    p = add("limit", cmd_limit, help="norm limit under conjugator powers")
    p.add_argument("--potential", required=True)
    p.add_argument("--conjugator", required=True)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--format", choices=["json", "table"], default="table")

    p = add("inverse-seq", cmd_inverse_seq,
            help="forward vs backward conjugation distances")
    p.add_argument("--model", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--conjugator", required=True)
    p.add_argument("--tail", default="e",
                   help="fixed word appended to each conjugator power")
    p.add_argument("--k-max", type=_count, default=8)
    p.add_argument("--budget", type=_count, default=32)
    p.add_argument("--format", choices=["json", "table"], default="table")

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser(_default_node_budget())
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc} "
              f"(partial count {exc.partial_count})", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
