"""Command-line front door.

Every command prints deterministic output for identical inputs: JSON with
sorted keys, floats at 12 significant digits, element encodings straight
from the models.

Exit codes: 0 success, 2 usage/parse error, 3 resource budget exceeded,
4 internal consistency failure.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import chain, islice, starmap
from json.encoder import encode_basestring as _quote
from types import SimpleNamespace

from . import derivations as dv
from . import experiments as ex
from . import graph as cg
from .errors import InternalConsistencyError, ResourceBudgetError, UsageError
from .groups import DEFAULT_NODE_BUDGET, get_model, parse_word, random_loop, random_payload
from .ring import exact_str, lp_norm


def _count(text: str) -> int:
    """argparse type of counts (radii, budgets, samples): an integer >= 0."""
    value = int(text)
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _default_node_budget() -> int:
    raw = os.environ.get("CONJLAB_DEFAULT_BUDGET")
    try:
        budget = int(raw) if raw else DEFAULT_NODE_BUDGET
    except ValueError:
        budget = -1  # refused below, as a negative count is
    if budget < 0:
        raise UsageError(f"bad CONJLAB_DEFAULT_BUDGET: {raw!r}")
    return budget


_CHUNK = 1024  # text pieces per write


def _write(pieces) -> None:
    """Write the text pieces to stdout as they are made, `_CHUNK` per write."""
    pieces, write = iter(pieces), sys.stdout.write
    while chunk := list(islice(pieces, _CHUNK)):
        write("".join(chunk))


def _emit(obj) -> None:
    """Write json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)
    and a newline, without building the document as one string.  A list
    may also be given as `_Rows`, and an object as `_Members`; each is read
    once while writing.  The leaves are str, int, bool and None, and a key
    is a str or an int: any other type, a float too, raises TypeError,
    since each command formats its floats as text."""
    _write(chain(_json_pieces(obj, "\n"), ["\n"]))


_LEAVES = (str, int, type(None))  # bool is an int


class _Members:
    """A JSON object given as its (key, value) pairs, already in sorted key
    order and without repeated keys, read once while written."""

    def __init__(self, pairs):
        self.pairs = pairs


class _Rows:
    """A JSON list of `rows`, each of `width` strings, read once while written."""

    def __init__(self, width: int, rows):
        self.width, self.rows = width, rows

    def pieces(self, nl: str):
        """The list's pieces in `_emit`'s layout, one a row, by C iterators alone."""
        inner = nl + "  "
        template = f",{inner}[{inner}  " + f",{inner}  ".join(["{}"] * self.width) + f"{inner}]"
        cells = [map(_quote, chain.from_iterable(self.rows))] * self.width
        rows = starmap(template.format, zip(*cells))
        first = next(rows, None)
        return ["[]"] if first is None else chain(["[" + first[1:]], rows, [nl + "]"])


def _scalar(obj) -> str:
    """The JSON text of a string, int, bool or None, as json writes it."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_pieces(obj, nl: str):
    """The pieces of `obj`'s JSON text in `_emit`'s layout; `nl` is a
    newline and the indent of the line `obj` starts on.  A scalar member is
    one piece with its key or separator; `_Rows` make their own pieces."""
    inner = nl + "  "
    if isinstance(obj, _Rows):
        yield from obj.pieces(nl)
    elif isinstance(obj, (dict, _Members)):
        sep = "{"
        for key, value in obj.pairs if isinstance(obj, _Members) else sorted(obj.items()):
            head = f"{sep}{inner}{_quote(key if isinstance(key, str) else _scalar(key))}: "
            if isinstance(value, _LEAVES):
                yield head + _scalar(value)
            else:
                yield head
                yield from _json_pieces(value, inner)
            sep = ","
        yield nl + "}" if sep == "," else "{}"
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for item in obj:
            if isinstance(item, _LEAVES):
                yield sep + inner + _scalar(item)
            else:
                yield sep + inner
                yield from _json_pieces(item, inner)
            sep = ","
        yield nl + "]" if sep == "," else "[]"
    else:
        yield _scalar(obj)


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def format_table(headers, rows) -> str:
    """The rows under their headers, each column right-aligned."""
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _distance(d):
    """A distance as JSON writes it: an int, or an AtLeast as its text."""
    return d if isinstance(d, int) else str(d)


def _load_potential(path) -> dv.Potential:
    try:
        return dv.Potential.load(path)
    except (OSError, ValueError, RecursionError) as exc:  # UsageError, JSON, deep nesting
        raise UsageError(f"cannot load potential file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands: each returns its output, a JSON document as a dict or text as an
# iterable of pieces, and writes nothing; `main` writes it.


def cmd_graph(args):
    model = get_model(args.model)
    base = model.decode_payload(args.base)
    ball = cg.explore_component(model, base, args.radius, args.budget_nodes)
    if args.format == "dot":
        return cg.export_dot(ball, suppress_loops=args.suppress_loops)
    enc, depths = ball.encodings, ball.depths
    return {
        "base": enc[base],
        "radius": args.radius,
        "complete": ball.complete,
        "closed": ball.closed,
        "vertices": [enc[p] for p in ball.by_encoding],
        # these two are read once, while written
        "edges": _Rows(3, ball.edge_rows(args.suppress_loops)),
        "dist": _Members((enc[p], depths[p]) for p in ball.by_encoding),
    }


def cmd_bc(args):
    model = get_model(args.model)
    K = [model.decode_payload(enc) for enc in args.k]
    shells, verdict = cg.bc_probe(
        model, K, args.cayley_radius, args.diam_budget, args.budget_nodes
    )
    return {
        "K": sorted(set(map(model.encode_payload, K))),  # encodings are one to one
        "shells": [[r, _distance(d)] for r, d in shells],
        "verdict": verdict,
    }


def cmd_derive(args):
    phi = _load_potential(args.potential)
    gp = phi.model.decode_payload(args.element)
    rows, column = phi.image(gp)
    return {
        "element": phi.model.encode_payload(gp),
        "image": _Rows(3, rows),
        "norm_p": fmt_float(lp_norm(column, args.p)),
        "p": fmt_float(args.p),
        "exact": phi.is_exact(),
        "truncation": None if phi.is_exact() else phi.trunc_k,
    }


def cmd_leibniz(args):
    from random import Random

    phi = _load_potential(args.potential)
    rng = Random(args.seed)

    violations = 0
    worst = 0.0
    for _ in range(args.samples):
        gp = random_payload(phi.model, rng)
        hp = random_payload(phi.model, rng)
        res = dv.leibniz_residual(phi, gp, hp)
        if res:
            worst = max(worst, lp_norm(res.values(), 1))
            violations += 1
    return [f"{violations} violations in {args.samples} samples "
            f"(max residual {fmt_float(worst)})\n"]


def cmd_character(args):
    phi = _load_potential(args.potential)
    model = phi.model
    up, vp = model.decode_payload(args.u), model.decode_payload(args.v)
    val = dv.character(phi, up, vp)
    # the coefficient of d(v) at u read termwise, with no d(v) built: the
    # sum of phi(s)([s v = u] - [v s = u]) over the support, phi read at
    # the hits only
    support = phi.support()
    cross = 0
    for left, sign in ((False, 1), (True, -1)):
        images = model.mul_all(support, vp, left=left)
        if up in images:  # for one s at most: a translation is one to one
            cross += sign * phi.value(support[images.index(up)])
    if cross != val:
        raise InternalConsistencyError(
            f"character mismatch at ({args.u},{args.v}): "
            f"potential {val} vs derivation {cross}"
        )
    return {"u": args.u, "v": args.v, "value": exact_str(val)}


def cmd_quasi_inner(args):
    from random import Random

    phi = _load_potential(args.potential)
    rng = Random(args.seed)

    loops = [random_loop(phi.model, rng) for _ in range(args.samples)]
    ok, witness = dv.quasi_inner_check(phi, loops)
    out = {"ok": ok, "loops": args.samples}
    if witness is not None:
        up, vp, val = witness
        out["witness"] = {
            "u": phi.model.encode_payload(up),
            "v": phi.model.encode_payload(vp),
            "value": exact_str(val),
        }
    return out


def cmd_stabilise(args):
    phi = _load_potential(args.potential)
    model = phi.model
    base = model.decode_payload(args.base)
    if args.radii != sorted(set(args.radii)):
        raise UsageError("--radii must be increasing")
    ball = cg.explore_component(model, base, args.radius, args.budget_nodes)
    probe = dv.stabilisation_probe(phi, ball, args.radii)
    return {
        "base": model.encode_payload(base),
        "radius": args.radius,
        "complete": ball.complete,
        "rows": [[r, exact_str(s)] for r, s in probe],
    }


def cmd_bound_probe(args):
    phi = _load_potential(args.potential)
    max_norm, argmax = dv.g_boundedness_probe(phi, args.radius, args.p, args.budget_nodes)
    return {
        "radius": args.radius,
        "p": fmt_float(args.p),
        "max_norm": fmt_float(max_norm),
        "argmax": phi.model.encode_payload(argmax),
    }


def cmd_appendix(args):
    # the table prints only the n = 1 coefficient, so it computes no other
    n_max = min(args.n_max, 1) if args.format == "table" else args.n_max
    rows = ex.run_appendix(args.m_max, n_max)
    if args.format == "table":
        return [format_table(["m", "coeff(n=1)", "norm_lower_bound", "ratio_lower_bound"], [
            (m, exact_str(coeffs[0][1]), fmt_float(lower), fmt_float(ratio))
            for m, coeffs, lower, ratio in rows])]
    return {
        "m_values": [m for m, *_ in rows],
        "n_max": n_max,
        "rows": [{"m": m, "coeffs": [[n, exact_str(v)] for n, v in coeffs],
                  "norm_lower_bound": fmt_float(lower), "ratio_lower_bound": fmt_float(ratio)}
                 for m, coeffs, lower, ratio in rows],
    }


def cmd_limit(args):
    phi = _load_potential(args.potential)
    a = parse_word(phi.model, args.conjugator)
    potential_norm, samples, separation_index = ex.run_limit_experiment(
        phi, a, args.q, args.k_max)
    if args.format == "table":
        return [format_table(["k", "norm", "norm^q (exact)"], [
            (k, fmt_float(norm), "-" if pw is None else exact_str(pw))
            for k, norm, pw in samples])]
    return {
        "q": fmt_float(args.q),
        "potential_norm": fmt_float(potential_norm),
        "samples": [[k, fmt_float(norm), None if pw is None else exact_str(pw)]
                    for k, norm, pw in samples],
        "separation_index": separation_index,
    }


def cmd_inverse_seq(args):
    model = get_model(args.model)
    up = model.decode_payload(args.u)
    a = parse_word(model, args.conjugator)
    tail = parse_word(model, args.tail)
    rows = ex.run_inverse_sequence_check(
        model, up, a, args.k_max, args.budget, tail=tail,
        node_budget=args.budget_nodes,
    )
    if args.format == "table":
        return [format_table(["k", "rho(u, a^k u a^-k)", "rho(u, a^-k u a^k)"], rows)]
    return {"rows": [[k, _distance(f), _distance(b)] for k, f, b in rows]}


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


def build_parser(node_budget: int):
    """The full argparse tree: every subcommand under one top level."""
    import argparse  # here, so that only help and errors load it
    parser = argparse.ArgumentParser(prog="conjlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in _commands(node_budget).items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(fn=fn)
        for flags, kwargs in arguments:
            command.add_argument(*flags, **kwargs)
    return parser


class Namespace(SimpleNamespace):
    """What `_read` returns: attributes, and a repr, as argparse.Namespace's."""


def _read(argv, commands):
    """The namespace `build_parser` reads from a well-formed command line,
    or None.  Well-formed: each token after the command is one of its
    option strings in full, and each value is the next token, does not
    start with "-", converts by its `type` and lies in its `choices`.  The
    attributes are set in argparse's order, so the repr is argparse's."""
    if not argv or argv[0] not in commands:
        return None
    fn, _, arguments = commands[argv[0]]
    args, options, missing = Namespace(command=argv[0]), {}, set()
    for flags, kw in arguments:
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        store_true = kw.get("action") == "store_true"
        setattr(args, dest, kw.get("default", False if store_true else None))
        options.update(dict.fromkeys(flags, (dest, kw, store_true)))
        if kw.get("required"):
            missing.add(dest)
    args.fn = fn
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in options:
            return None
        dest, kw, store_true = options[token]
        missing.discard(dest)
        if store_true:
            setattr(args, dest, True)
            continue
        text = next(tokens, "-")  # a missing value declines as "-" does
        if text.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(text)
        except Exception:  # argparse converts it again, and reports or raises
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        if kw.get("action") == "append":
            value = [*(getattr(args, dest) or ()), value]
        setattr(args, dest, value)
    return None if missing else args


def parse(argv, node_budget: int):
    """The namespace of `argv`, as `build_parser` reads it.

    A well-formed command line is read straight from the command table:
    argparse formats help inside every `add_argument`, so building even
    one parser costs a short command more than its own work.  Anything
    else (help, errors, `--`, `--opt=value`, abbreviations, values that
    start with "-") goes to the full tree, so it prints what it always did.
    """
    args = _read(argv, _commands(node_budget))
    return build_parser(node_budget).parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run a command and write what its handler returned; the exit code is
    0 once that is written, and 2, 3 or 4 only from the exceptions below.
    The cyclic collector is paused meanwhile: a command's data hold no
    cycles, so reference counts free them, and its allocations would only
    set the collector walking them again and again."""
    argv = sys.argv[1:] if argv is None else list(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = parse(argv, _default_node_budget())
        out = args.fn(args)
        (_emit if isinstance(out, dict) else _write)(out)
        sys.stdout.flush()
        return 0
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
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
