"""The reach gate: every `def` in `src/conjlab` that no command reaches is
named in `UNREACHED`, with its reason.

Both golden corpora of `tests/test_corpus.py` run once, in process, under
`sys.setprofile` (call events only), and every digest must hold; the
corpus's own digest test reads its outcome from this one pass.  The code
objects that started to run under `src/conjlab` are then matched with
every `def` there, read from the AST, so the names are the same on every
Python: `module.qualname`, a nested function under `<locals>`.  Not
counted: `__main__.py`, module and class bodies, lambdas and
comprehensions.  The gate fails on an unreached `def` that has no entry,
and on a stale entry, whose `def` is reached or gone.  It traces calls,
not branches: a function that one argv enters is reached, whatever of it
stays unrun.

Two rules go with the table: a deletion removes its entry, and a new
fast path adds none (the path it stands in for is its reference, in
`REFERENCES` of `tests/test_corpus.py`, and the corpora still reach it
or it moves to the tests).  To list today's unreached `def`s:

    PYTHONPATH=src python tests/test_reach.py

The same pass under `sys.settrace` lists each statement inside a reached
`def` that no argv runs, docstrings excluded; it is slower, and no test
reads it:

    PYTHONPATH=src python tests/test_reach.py --lines
"""

import ast
import functools
import os
import sys
import tempfile
import types
from pathlib import Path

import conjlab
from test_corpus import CORPORA, digests_moved

SRC = Path(conjlab.__file__).resolve().parent
HERE = Path(__file__).resolve()

# why a def may stay although no command reaches it
REASONS = {
    "abstract": "a method that every model overrides",
    "tracer-held": "bench/tracer.py wraps or reads it (ROADMAP item 11)",
    "unit oracle only": "only a named unit oracle reaches it",
    "value semantics": "equality, hashing or text of a library value",
}

UNREACHED = {
    "groups.GroupModel.identity_payload": "abstract",
    "groups.GroupModel.mul_payload": "abstract",
    "groups.GroupModel.inv_payload": "abstract",
    "groups.GroupModel.encode_payload": "abstract",
    "groups.GroupModel.decode_payload": "abstract",
    "groups.GroupModel.generator_payloads": "abstract",
    "groups.GroupModel.class_is_finite": "abstract",
    "groups.SwapExtension.sigma": "abstract",
    "groups.GroupModel.multiply": "tracer-held",
    "groups.GroupModel.conjugate": "tracer-held",
    "graph.conj_neighbors": "tracer-held",
    "graph.ConjGraphBall.vertices": "tracer-held",
    "graph.ConjGraphBall.edges": "tracer-held",
    # also the reference of the derive-hit_column row
    "derivations.Derivation.__init__": "tracer-held",
    "derivations.Derivation.apply": "tracer-held",
    "derivations.Potential.add_derivation": "tracer-held",
    "ring.GroupRingVector.__init__": "tracer-held",
    "ring.GroupRingVector.__add__": "tracer-held",
    "ring.GroupRingVector.__iadd__": "tracer-held",
    "ring.GroupRingVector._check_model": "tracer-held",
    "ring.GroupRingVector.mul_elem_right": "tracer-held",
    "ring.GroupRingVector.mul_elem_left": "tracer-held",
    "ring.GroupRingVector.__mul__": "tracer-held",
    "ring.GroupRingVector.lp_norm": "tracer-held",
    "ring.GroupRingVector.to_json": "tracer-held",
    # leibniz_residual's differing-key branch, which only non-associative
    # models take: test_leibniz_residual_is_the_six_sums_on_skew_products
    "ring.add_terms": "unit oracle only",
    "groups.AtLeast.__eq__": "value semantics",
    "groups.AtLeast.__hash__": "value semantics",
    "groups.AtLeast.__repr__": "value semantics",
    "ring.GroupRingVector.__eq__": "value semantics",
    "ring.GroupRingVector.__repr__": "value semantics",
    "ring.GroupRingVector.coefficient": "value semantics",
    "ring.GroupRingVector.is_zero": "value semantics",
}


_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


def _def_nodes() -> list:
    """(name, path, node) of every `def` in the package's modules but
    `__main__.py`."""
    found = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, _DEF):
                found.append((prefix + child.name, path, child))
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "__main__.py":
            walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def defs() -> list:
    """(name, path, line of the `def`, first line of its code) of every
    `def` in the package's modules but `__main__.py`; a decorated
    function's code starts at its first decorator."""
    return [(name, path, node.lineno,
             min([d.lineno for d in node.decorator_list], default=node.lineno))
            for name, path, node in _def_nodes()]


@functools.cache
def trace(lines=False) -> tuple:
    """(reached, moved, ran): the (path, first line) of every code object
    under the package that was called while both corpora ran, for each
    corpus the argv whose exit code or digests moved, and with `lines` the
    (path, line) of every line that ran there.  Runs once, in a scratch
    directory, under `sys.setprofile`, or `sys.settrace` with `lines`."""
    codes, ran = set(), set()
    resolve = functools.cache(lambda name: Path(name).resolve())

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):  # the global trace function sees calls only
        codes.add(frame.f_code)
        return local if resolve(frame.f_code.co_filename).parent == SRC else None

    install, hook = (sys.settrace, call) if lines else (sys.setprofile, profile)
    budget, cwd = os.environ.pop("CONJLAB_DEFAULT_BUDGET", None), os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        install(hook)
        try:
            moved = {name: digests_moved(name) for name in CORPORA}
        finally:
            install(None)
            os.chdir(cwd)
            if budget is not None:
                os.environ["CONJLAB_DEFAULT_BUDGET"] = budget
    reached = {(resolve(code.co_filename), code.co_firstlineno) for code in codes
               if resolve(code.co_filename).parent == SRC}
    return reached, moved, {(resolve(name), line) for name, line in ran}


def _code_lines(code) -> set:
    """The lines that hold bytecode in `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def unrun_lines(ran) -> list:
    """`path:line: def: statement` for each statement inside a `def` of
    which no line is in `ran`, docstrings excluded, and the `def`s of
    `UNREACHED` left out, since their reason covers every line.  A
    statement's lines are its header for a compound one or an `except`
    clause, all of it for a simple one; a statement with no bytecode there
    (`global`, say) has none to run.  A nested `def` is listed as a `def`
    of its own."""
    out, code_lines = [], {}
    for name, path, node in _def_nodes():
        if name in UNREACHED:
            continue
        if path not in code_lines:
            text = path.read_text(encoding="utf-8")
            code_lines[path] = (_code_lines(compile(text, str(path), "exec")), text.splitlines())
        has_code, source = code_lines[path]
        todo = node.body[1:] if ast.get_docstring(node, clean=False) else list(node.body)
        while todo:
            stmt = todo.pop(0)
            if isinstance(stmt, (*_DEF, ast.ClassDef)):
                continue
            inner = [child for field in ("body", "handlers", "orelse", "finalbody")
                     for child in getattr(stmt, field, [])]
            todo[:0] = inner
            last = inner[0].lineno - 1 if inner else stmt.end_lineno
            own = set(range(stmt.lineno, max(last, stmt.lineno) + 1)) & has_code
            if own and not any((path, line) in ran for line in own):
                out.append(f"{_at(path, stmt.lineno)}: {name}: {source[stmt.lineno - 1].strip()}")
    return out


def _at(path, line) -> str:
    return f"{os.path.relpath(path, SRC.parents[1])}:{line}"


def problems(found, reached, table) -> list:
    """One line per unreached `def` without an entry, ready to paste into
    `table`, and one per stale entry: its `def` is reached, or there is none."""
    unreached, lines = {}, []
    for name, path, line, first in found:
        if (path, first) not in reached:
            unreached.setdefault(name, _at(path, line))
    for name, at in unreached.items():
        if name not in table:
            lines.append(f'{at}: no command reaches it; add "{name}": "<reason>",')
    where = {name: _at(path, line) for name, path, line, _ in found}
    source = HERE.read_text(encoding="utf-8").splitlines()
    for name in table:
        if name not in where:
            line = next(i for i, text in enumerate(source, 1) if f'"{name}":' in text)
            lines.append(f"{_at(HERE, line)}: no def {name} is left; remove its entry")
        elif name not in unreached:
            lines.append(f"{where[name]}: {name} is reached; remove its entry")
    return lines


def test_the_traced_corpora_keep_every_digest():
    assert trace()[1] == dict.fromkeys(CORPORA, [])


def test_every_entry_gives_a_reason_from_the_closed_set():
    assert {name: why for name, why in UNREACHED.items() if why not in REASONS} == {}


def test_no_def_goes_unreached_without_its_entry():
    found = problems(defs(), trace()[0], UNREACHED)
    assert not found, "\n" + "\n".join(found)


def test_the_gate_names_each_planted_fault():
    found, reached = defs(), trace()[0]
    before = problems(found, reached, UNREACHED)

    def new(found, table):
        return [line for line in problems(found, reached, table) if line not in before]

    # an unused def, a stale entry, and a tracer-held def gone with its entry kept
    graph = SRC / "graph.py"
    assert new([*found, ("graph.planted", graph, 999, 999)], UNREACHED) == [
        f'{_at(graph, 999)}: no command reaches it; add "graph.planted": "<reason>",']
    stale = new(found, {**UNREACHED, "graph.bc_probe": "abstract"})
    assert len(stale) == 1 and stale[0].endswith("graph.bc_probe is reached; remove its entry")
    gone = new([d for d in found if d[0] != "graph.conj_neighbors"], UNREACHED)
    assert len(gone) == 1 and gone[0].endswith("no def graph.conj_neighbors is left; "
                                               "remove its entry")


if __name__ == "__main__" and sys.argv[1:] == ["--lines"]:
    for line in unrun_lines(trace(lines=True)[2]):
        print(line)
elif __name__ == "__main__":
    reached = trace()[0]
    for name, path, line, first in defs():
        if (path, first) not in reached:
            print(f'{_at(path, line)}: "{name}": "{UNREACHED.get(name, "<reason>")}",')
    for line in problems(defs(), reached, UNREACHED):
        print(line)
