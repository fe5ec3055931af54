"""Layer tracing installed from outside the program.

`Tracer.install()` replaces public functions and methods of the conjlab
modules with wrappers, in every conjlab module namespace that holds them,
and `uninstall()` puts the originals back.  Nothing inside conjlab is
edited.

Three kinds of wrapper, by how often the boundary is crossed:
- count: payload arithmetic (L0), 1e5-1e6 calls per command; a call
  counter only, since timing a ~0.2 us call would swamp it;
- time: element, neighbour, ring and potential calls (L1-L2 and the
  per-term calls of L4); call count plus stack-based self time;
- span: searches, algorithms and CLI commands (L3-L5); as `time`, plus
  one span (name, start, end, parent span, command index) kept in memory
  and written out at the end.

Self time is a wrapper's duration minus the durations of the timed
wrappers it encloses, so the self times of one command add up to the
command's traced time.  Counted-only calls are inside their caller's
self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MODULES = ("groups", "graph", "ring", "derivations", "experiments", "cli")

# (name, module, owner attribute or None for a module function, attribute,
#  kind); owners are classes of the module.
TARGETS = [
    ("groups.conjugate", "groups", "GroupModel", "conjugate", "time"),
    ("groups.multiply", "groups", "GroupModel", "multiply", "time"),
    ("groups.cayley_ball", "groups", "GroupModel", "cayley_ball", "span"),
    ("groups.get_model", "groups", None, "get_model", "time"),
    ("graph.conj_neighbors", "graph", None, "conj_neighbors", "time"),
    ("graph.explore_component", "graph", None, "explore_component", "span"),
    ("graph.conj_distance", "graph", None, "conj_distance", "span"),
    ("graph.bc_probe", "graph", None, "bc_probe", "span"),
    ("graph.export_dot", "graph", None, "export_dot", "span"),
    ("ring.add", "ring", "GroupRingVector", "__add__", "time"),
    ("ring.mul_elem", "ring", "GroupRingVector", "mul_elem_right", "time"),
    ("ring.mul_elem", "ring", "GroupRingVector", "mul_elem_left", "time"),
    ("ring.convolve", "ring", "GroupRingVector", "__mul__", "time"),
    ("ring.lp_norm", "ring", "GroupRingVector", "lp_norm", "time"),
    ("ring.to_json", "ring", "GroupRingVector", "to_json", "time"),
    ("derivations.Potential.value", "derivations", "Potential", "value", "time"),
    ("derivations.Potential.support", "derivations", "Potential", "support", "time"),
    ("derivations.Potential.load", "derivations", "Potential", "load", "time"),
    ("derivations.Derivation.apply", "derivations", "Derivation", "apply", "span"),
    ("derivations.g_boundedness_probe", "derivations", None,
     "g_boundedness_probe", "span"),
    ("derivations.leibniz_residual", "derivations", None, "leibniz_residual", "time"),
    ("experiments.run_appendix", "experiments", None, "run_appendix", "span"),
    ("experiments.run_limit_experiment", "experiments", None,
     "run_limit_experiment", "span"),
    ("experiments.run_inverse_sequence_check", "experiments", None,
     "run_inverse_sequence_check", "span"),
    ("cli.main", "cli", None, "main", "span"),
]

# Payload arithmetic, counted over every model class that defines it.
COUNTED = ("mul_payload", "inv_payload")

# CLI subcommands; each `cmd_<name>` function of conjlab.cli is a span.
SUBCOMMANDS = ("graph", "bc", "derive", "leibniz", "character", "quasi-inner",
               "stabilise", "bound-probe", "appendix", "limit", "inverse-seq")


def _post_ball(tracer, name, result):
    tracer.work[name + ".nodes"] += len(result)


def _post_component(tracer, name, result):
    tracer.work[name + ".nodes"] += len(result.vertices)
    tracer.work[name + ".edges"] += len(result.edges)


def _post_distance(tracer, name, result):
    tracer.work[name + ".atleast"] += not isinstance(result, int)


def _post_apply(tracer, name, result):
    tracer.work[name + ".terms"] += len(result.terms)


POST = {
    "groups.cayley_ball": _post_ball,
    "graph.explore_component": _post_component,
    "graph.conj_distance": _post_distance,
    "derivations.Derivation.apply": _post_apply,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.work = defaultdict(int)
        self.counts = {name: [0] for name in COUNTED}
        self.spans = []
        self.cmd = -1
        self._stack = []  # per open timed call: [time spent in timed children]
        self._open_spans = []
        self._patches = []
        self._t0 = time.perf_counter()

    # -- wrappers -------------------------------------------------------------

    def _counted(self, name, fn):
        cell = self.counts[name]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _timed(self, name, fn, span):
        stack, open_spans, spans = self._stack, self._open_spans, self.spans
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        post = POST.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            if span:
                sid = len(spans)
                spans.append([name, 0.0, 0.0,
                              open_spans[-1] if open_spans else None, tracer.cmd])
                open_spans.append(sid)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self_s[name] += dt - frame[0]
                incl_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
                if span:
                    open_spans.pop()
                    spans[sid][1] = t0 - tracer._t0
                    spans[sid][2] = t1 - tracer._t0
            if post is not None:
                post(tracer, name, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch_method(self, owner, attr, make):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        modules = {name: sys.modules[f"conjlab.{name}"] for name in MODULES}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "conjlab" or n.startswith("conjlab.")]
        targets = list(TARGETS) + [
            (f"cli.{sub}", "cli", None, "cmd_" + sub.replace("-", "_"), "span")
            for sub in SUBCOMMANDS
        ]
        for name, mod, owner, attr, kind in targets:
            def make(fn, name=name, span=kind == "span"):
                return self._timed(name, fn, span)

            if owner is None:
                original = getattr(modules[mod], attr)
                self._patch_function(namespaces, original, make(original))
            else:
                self._patch_method(getattr(modules[mod], owner), attr, make)
        base = modules["groups"].GroupModel
        for cls in _subclasses(base):
            for attr in COUNTED:
                if attr in cls.__dict__:
                    self._patch_method(
                        cls, attr, lambda fn, attr=attr: self._counted(attr, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "work": dict(self.work),
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "command"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from a summary


def self_time_shares(summary) -> dict:
    """Each module's share of the traced self time, and the share of the
    fixed per-command costs: argument parsing, model lookup and potential
    loading."""
    self_s = summary["self_s"]
    total = sum(self_s.values()) or 1.0
    shares = {mod: sum(v for k, v in self_s.items() if k.startswith(mod + "."))
              / total for mod in MODULES}
    shares["per_command_fixed"] = sum(
        self_s.get(k, 0.0) for k in ("cli.main", "derivations.Potential.load",
                                     "groups.get_model")) / total
    return shares


def _per_layer_names():
    names = [
        ("groups.mul_payload.calls", "count"), ("groups.inv_payload.calls", "count"),
        ("groups.conjugate.calls", "count"), ("groups.conjugate.self_s", "s"),
        ("groups.multiply.calls", "count"), ("groups.multiply.self_s", "s"),
        ("groups.cayley_ball.self_s", "s"), ("groups.cayley_ball.nodes", "count"),
        ("groups.get_model.self_s", "s"),
        ("graph.conj_neighbors.calls", "count"), ("graph.conj_neighbors.self_s", "s"),
        ("graph.explore_component.self_s", "s"),
        ("graph.explore_component.nodes", "count"),
        ("graph.explore_component.edges", "count"),
        ("graph.conj_distance.calls", "count"), ("graph.conj_distance.self_s", "s"),
        ("graph.conj_distance.atleast_frac", "ratio"),
        ("graph.bc_probe.self_s", "s"), ("graph.export_dot.self_s", "s"),
        ("graph.search_us_per_node", "us"),
        ("ring.add.calls", "count"), ("ring.add.self_s", "s"),
        ("ring.mul_elem.calls", "count"), ("ring.mul_elem.self_s", "s"),
        ("ring.convolve.calls", "count"), ("ring.convolve.self_s", "s"),
        ("ring.lp_norm.self_s", "s"), ("ring.to_json.self_s", "s"),
        ("derivations.Potential.value.calls", "count"),
        ("derivations.Potential.value.self_s", "s"),
        ("derivations.Potential.support.calls", "count"),
        ("derivations.Potential.support.self_s", "s"),
        ("derivations.Potential.load.self_s", "s"),
        ("derivations.Derivation.apply.calls", "count"),
        ("derivations.Derivation.apply.self_s", "s"),
        ("derivations.Derivation.apply.terms", "count"),
        ("derivations.g_boundedness_probe.self_s", "s"),
        ("derivations.leibniz_residual.self_s", "s"),
        ("experiments.run_appendix.self_s", "s"),
        ("experiments.run_limit_experiment.self_s", "s"),
        ("experiments.run_inverse_sequence_check.self_s", "s"),
        ("cli.main.self_s", "s"),
    ]
    names += [(f"cli.{sub}.wall_s", "s") for sub in SUBCOMMANDS]
    names += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
              ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


PER_LAYER = _per_layer_names()


def layer_metrics(summary, untraced_wall, traced_wall, cli_wall) -> dict:
    """Per-layer metrics of one traced pass.  `cli_wall` maps a subcommand
    to the untraced time its commands took in one pass."""
    calls, self_s, incl_s = summary["calls"], summary["self_s"], summary["incl_s"]
    work, counts = summary["work"], summary["counts"]
    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            prefix, _, leaf = base.rpartition(".")
            values[name] = (counts[leaf] if prefix == "groups" and leaf in COUNTED
                            else calls.get(base, 0))
        elif field == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif field in ("nodes", "edges", "terms"):
            values[name] = work.get(name, 0)
    n_dist = calls.get("graph.conj_distance", 0)
    values["graph.conj_distance.atleast_frac"] = (
        work.get("graph.conj_distance.atleast", 0) / n_dist if n_dist else 0.0)
    expanded = calls.get("graph.conj_neighbors", 0)
    search_s = incl_s.get("graph.explore_component", 0.0) + incl_s.get(
        "graph.conj_distance", 0.0)
    values["graph.search_us_per_node"] = 1e6 * search_s / expanded if expanded else 0.0
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.wall_s"] = cli_wall.get(sub, 0.0)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = summary["spans"]
    return values
