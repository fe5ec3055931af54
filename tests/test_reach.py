"""The reach gates: every `def` in `src/conjlab` that no command reaches
is named in `UNREACHED`, and every statement inside a reached `def` that no
command runs is named in `STATEMENTS`, each with its reason.

Both golden corpora of `tests/test_corpus.py` run once, in process, under
`sys.settrace`, and every digest must hold; the corpus's own digest test
reads its outcome from this one pass, which both gates read too.  It
records the code objects under `src/conjlab` that started to run, and the
lines that ran there.

The function gate matches those code objects with every `def` there, read
from the AST, so the names are the same on every Python: `module.qualname`,
a nested function under `<locals>`.  Not counted: `__main__.py`, module and
class bodies, lambdas and comprehensions.  The statement gate reads each
statement inside a `def` that `UNREACHED` does not name (its reason covers
every line), docstrings excluded, and keys it by its `def` and its first
source line, with a repeat count where that text recurs in the `def`, not
by its line number.  Each gate fails, by `file:line`, on an item with no
entry, and on a stale entry, whose item is reached or gone.

Two rules go with the tables: a deletion removes its entry, and a new
fast path adds none (the path it stands in for is its reference, in
`REFERENCES` of `tests/test_corpus.py`, and the corpora still reach it
or it moves to the tests).  To print today's unreached `def`s and unrun
statements as ready-to-paste entries, then each gate's problems:

    PYTHONPATH=src python tests/test_reach.py
"""

import ast
import functools
import io
import os
import sys
import tempfile
import tokenize
import types
from collections import Counter
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

# why a statement inside a reached def may stay unrun by every argv
STATEMENT_REASONS = {
    "input path": "argparse or the environment refuses the input, or the fast "
                  "reader declines the line and argparse reads it",
    "OS handler": "the operating system ends the run: a closed pipe, no memory",
    "consistency self-check": "it fails only when the engine is wrong",
    "writer contract": "the JSON writer's answer for a value no command returns",
}

# (def, statement text[, repeat count]): (reason, the test that runs it)
STATEMENTS = {
    ("cli._count", "import argparse"):
        ("input path", "tests/test_cli.py::TestGraph::test_negative_radius_exits_2"),
    ("cli._count", 'raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")'):
        ("input path", "tests/test_cli.py::TestGraph::test_negative_radius_exits_2"),
    ("cli._default_node_budget", "except ValueError:"):
        ("input path", "tests/test_cli.py::TestPlumbing::test_bad_budget_env_exits_2"),
    ("cli._default_node_budget", "budget = -1"):
        ("input path", "tests/test_cli.py::TestPlumbing::test_bad_budget_env_exits_2"),
    ("cli._default_node_budget", 'raise UsageError(f"bad CONJLAB_DEFAULT_BUDGET: {raw!r}")'):
        ("input path", "tests/test_cli.py::TestPlumbing::test_negative_budget_env_exits_2"),
    ("cli._read", "return None"):
        ("input path",
         "tests/test_cli.py::TestParser::test_main_prints_what_the_full_parser_prints"),
    ("cli._read", "return None", 2):
        ("input path", "tests/test_cli.py::TestParser::test_a_command_builds_one_subparser"),
    ("cli._read", "except Exception:"):
        ("input path", "tests/test_cli.py::TestStabilise::test_bad_radius_exits_2"),
    ("cli._read", "return None", 4):
        ("input path", "tests/test_cli.py::TestStabilise::test_bad_radius_exits_2"),
    ("cli._read", "return None", 5):
        ("input path", "tests/test_cli.py::TestParser::test_an_error_builds_only_the_full_tree"),
    ("cli.main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        ("OS handler", "tests/test_cli.py::test_closed_pipe_exits_0_quietly"),
    ("cli.main", "return 0", 2):
        ("OS handler", "tests/test_cli.py::test_closed_pipe_exits_0_quietly"),
    ("cli.main", 'print("resource budget exceeded: out of memory", file=sys.stderr)'):
        ("OS handler", "tests/test_cli.py::TestCharacter::test_out_of_memory_exits_3"),
    ("cli.main", "return 3", 2):
        ("OS handler", "tests/test_cli.py::TestCharacter::test_out_of_memory_exits_3"),
    # every model here is associative, so a loop's character vanishes and a
    # Leibniz residual adds no term; character's termwise cross-check agrees
    # unless one of its two routes is wrong
    ("cli.cmd_character", "raise InternalConsistencyError("):
        ("consistency self-check", "tests/test_cli.py::TestCharacter::test_mismatch_exits_4"),
    ("cli.cmd_leibniz", "worst = max(worst, lp_norm(res.values(), 1))"):
        ("consistency self-check",
         "tests/test_cli.py::TestLeibniz::test_violations_counted_exactly"),
    ("cli.cmd_leibniz", "violations += 1"):
        ("consistency self-check",
         "tests/test_cli.py::TestLeibniz::test_violations_counted_exactly"),
    ("derivations.leibniz_residual",
     "add_terms(acc, [t for u, v, c in zip(plus, minus, values) if u != v"):
        ("consistency self-check",
         "tests/test_derivations.py::test_leibniz_residual_is_the_six_sums_on_skew_products"),
    ("cli.cmd_quasi_inner", "up, vp, val = witness"):
        ("consistency self-check",
         "tests/test_cli.py::TestQuasiInner::test_witness_is_the_first_nonzero_loop"),
    ("cli.cmd_quasi_inner", 'out["witness"] = {'):
        ("consistency self-check",
         "tests/test_cli.py::TestQuasiInner::test_witness_is_the_first_nonzero_loop"),
    ("derivations.quasi_inner_check", "return False, (up, vp, val)"):
        ("consistency self-check",
         "tests/test_derivations.py::TestQuasiInner::test_broken_character_caught"),
    ("cli._scalar",
     'raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")'):
        ("writer contract", "tests/test_cli.py::test_writer_refuses_a_float"),
    ("cli._json_pieces", "yield _scalar(obj)"):
        ("writer contract", "tests/test_cli.py::test_writer_matches_json_dumps"),
}


_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


def _def_nodes(paths=None) -> list:
    """(name, path, node) of every `def` in `paths`, by default the
    package's modules but `__main__.py`."""
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

    for path in paths or sorted(set(SRC.glob("*.py")) - {SRC / "__main__.py"}):
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
def trace() -> tuple:
    """(reached, moved, ran): the (path, first line) of every code object
    under the package that was called while both corpora ran, for each
    corpus the argv whose exit code or digests moved, and the (path, line)
    of every line that ran there, a called code object's first line (its
    `def` or first decorator) included.  Runs once, in a scratch directory,
    under `sys.settrace`; a code object is traced line by line only until
    each of its lines has run, so the hot loops soon run untraced."""
    left = {}  # the lines of each called code object that have not run yet
    resolve = functools.cache(lambda name: Path(name).resolve())

    def local(frame, event, arg):
        todo = left[frame.f_code]
        if event == "line":
            todo.discard(frame.f_lineno)
        return local if todo else None

    def call(frame, event, arg):  # the global trace function sees calls only
        code = frame.f_code
        if code not in left:
            if resolve(code.co_filename).parent != SRC:
                return None
            left[code] = _own_lines(code) - {code.co_firstlineno}
        return local if left[code] else None

    budget, cwd = os.environ.pop("CONJLAB_DEFAULT_BUDGET", None), os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sys.settrace(call)
        try:
            moved = {name: digests_moved(name) for name in CORPORA}
        finally:
            sys.settrace(None)
            os.chdir(cwd)
            if budget is not None:
                os.environ["CONJLAB_DEFAULT_BUDGET"] = budget
    reached = {(resolve(code.co_filename), code.co_firstlineno) for code in left}
    ran = {(resolve(code.co_filename), line) for code, todo in left.items()
           for line in _own_lines(code) - todo}
    return reached, moved, ran


def _own_lines(code) -> set:
    """The lines that hold bytecode in `code`, not in the code nested in it."""
    return {line for _, _, line in code.co_lines() if line is not None}


def _code_lines(code) -> set:
    """The lines that hold bytecode in `code` and the code nested in it."""
    lines = _own_lines(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


@functools.cache
def _module(path) -> tuple:
    """(the lines that hold bytecode, the source lines, {line: column of its
    comment}) of the module at `path`."""
    text = path.read_text(encoding="utf-8")
    comments = {tok.start[0]: tok.start[1] for tok in tokenize.generate_tokens(
        io.StringIO(text).readline) if tok.type == tokenize.COMMENT}
    return _code_lines(compile(text, str(path), "exec")), text.splitlines(), comments


def statements() -> list:
    """(key, path, line, lines) of each statement inside a `def` that
    `UNREACHED` does not name, docstrings excluded.  The key is (def, text),
    text the statement's first source line less its comment, or (def, text,
    n) for the n-th statement of that text in the `def`.  Its lines are
    those that hold bytecode in its header, for a compound statement or an
    `except` clause, or in all of a simple one; a statement with none
    (`global`, say) has nothing to run and is left out.  A nested `def`
    counts as a `def` of its own."""
    out = []
    for name, path, node in _def_nodes():
        if name in UNREACHED:
            continue
        has_code, source, comments = _module(path)
        todo = node.body[1:] if ast.get_docstring(node, clean=False) else list(node.body)
        seen = Counter()
        while todo:
            stmt = todo.pop(0)
            if isinstance(stmt, (*_DEF, ast.ClassDef)):
                continue
            inner = [child for field in ("body", "handlers", "orelse", "finalbody")
                     for child in getattr(stmt, field, [])]
            todo[:0] = inner
            last = inner[0].lineno - 1 if inner else stmt.end_lineno
            own = set(range(stmt.lineno, max(last, stmt.lineno) + 1)) & has_code
            if own:
                text = source[stmt.lineno - 1][:comments.get(stmt.lineno)].strip()
                seen[text] += 1
                key = (name, text) if seen[text] == 1 else (name, text, seen[text])
                out.append((key, path, stmt.lineno, own))
    return out


def unrun(found, ran) -> dict:
    """{key: (path, line)} of each statement in `found` of which no line ran."""
    return {key: (path, line) for key, path, line, lines in found
            if not any((path, n) in ran for n in lines)}


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


def _entry_lines() -> dict:
    """{key: line in this file} of each `STATEMENTS` entry."""
    tree = ast.parse(HERE.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "STATEMENTS")
    return {ast.literal_eval(key): key.lineno for key in table.keys}


def statement_problems(found, ran, table) -> list:
    """One line per unrun statement in `found` without an entry, ready to
    paste into `table`, and one per stale entry: its statement runs, or
    there is none."""
    missing, lines = unrun(found, ran), []
    for key, (path, line) in missing.items():
        if key not in table:
            lines.append(f'{_at(path, line)}: no argv runs it; add {key!r}: ("<reason>", None),')
    where = {key: (path, line) for key, path, line, _ in found}
    for key in table:
        if key not in where:
            lines.append(f"{_at(HERE, _entry_lines()[key])}: no statement {key!r} is left; "
                         "remove its entry")
        elif key not in missing:
            lines.append(f"{_at(*where[key])}: {key!r} runs; remove its entry")
    return lines


def test_the_traced_corpora_keep_every_digest():
    assert trace()[1] == dict.fromkeys(CORPORA, [])


def test_every_entry_gives_a_reason_from_the_closed_set():
    assert {name: why for name, why in UNREACHED.items() if why not in REASONS} == {}


def test_every_statement_entry_gives_a_reason_and_a_test_that_exists():
    tests = {f"tests/{path.name}::" + name.partition(".")[2].replace(".", "::")
             for name, path, _ in _def_nodes(sorted(HERE.parent.glob("test_*.py")))}
    assert {key: entry for key, entry in STATEMENTS.items()
            if entry[0] not in STATEMENT_REASONS or entry[1] not in {*tests, None}} == {}


def test_no_def_goes_unreached_without_its_entry():
    found = problems(defs(), trace()[0], UNREACHED)
    assert not found, "\n" + "\n".join(found)


def test_no_statement_goes_unrun_without_its_entry():
    found = statement_problems(statements(), trace()[2], STATEMENTS)
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


def test_the_statement_gate_names_each_planted_fault():
    found, ran = statements(), trace()[2]
    before = statement_problems(found, ran, STATEMENTS)

    def new(found, table):
        return [line for line in statement_problems(found, ran, table) if line not in before]

    # an unrun statement, an entry for one that runs, and an entry whose
    # statement was deleted
    graph = SRC / "graph.py"
    planted = ("graph.bc_probe", "x = 1")
    assert new([*found, (planted, graph, 999, {999})], STATEMENTS) == [
        f'{_at(graph, 999)}: no argv runs it; add {planted!r}: ("<reason>", None),']
    key, path, line, _ = next(s for s in found if s[0][0] == "graph.bc_probe")
    assert new(found, {**STATEMENTS, key: ("input path", None)}) == [
        f"{_at(path, line)}: {key!r} runs; remove its entry"]
    key = ("cli.main", "return 3", 2)
    assert new([s for s in found if s[0] != key], STATEMENTS) == [
        f"{_at(HERE, _entry_lines()[key])}: no statement {key!r} is left; remove its entry"]


if __name__ == "__main__":
    reached, _, ran = trace()
    for name, path, line, first in defs():
        if (path, first) not in reached:
            print(f'{_at(path, line)}: "{name}": "{UNREACHED.get(name, "<reason>")}",')
    for key, (path, line) in unrun(statements(), ran).items():
        print(f"{_at(path, line)}: {key!r}: {STATEMENTS.get(key, ('<reason>', None))!r},")
    for line in [*problems(defs(), reached, UNREACHED),
                 *statement_problems(statements(), ran, STATEMENTS)]:
        print(line)
