"""Source checks that need no linter: every name a module of evontree
imports is used in that module, every name the benchmark's tracer wraps
exists, every stage body takes the inputs its TABLE row names and writes no
file, and only the command line catches every package error."""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
from pathlib import Path

from evontree.pipeline import TABLE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evontree"

# Imported for perfbench/spans.py to wrap, by module and name, each marked
# `noqa: F401` where it is imported.
KEPT_FOR_THE_TRACER = {("pipeline", "read_triple_file"), ("pipeline", "score_triple")}

# The calls that write or remove a file, by the name called.
FILE_WRITES = {"write_atomic", "_write_json", "write_triple_file", "write_text", "write_bytes",
               "unlink", "open"}


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, tuple[int, bool]]:
    """Each name the module binds by import, with the line of its import and
    whether that line is marked noqa: F401. Future imports bind nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                lineno = getattr(alias, "lineno", node.lineno)
                names[name] = (lineno, "noqa: F401" in lines[lineno - 1])
    return names


def used_names(tree: ast.AST) -> set[str]:
    """The names the module reads, in code and in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_every_import_is_used():
    unused, exempt = [], set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        used = used_names(tree)
        for name, (lineno, noqa) in imported_names(tree, text.splitlines()).items():
            if noqa:
                exempt.add((path.stem, name))
            elif name not in used:
                unused.append(f"{path.name}:{lineno}: {name}")
    assert unused == []
    assert exempt == KEPT_FOR_THE_TRACER


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/spans.py looks up by name each function and method it wraps,
    # so install raises once one is renamed or deleted. A fresh interpreter,
    # as install patches evontree for good.
    script = "import sys; sys.path[:0] = sys.argv[1:]; import spans; spans.install(spans.Tracer())"
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "perfbench"), str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_each_stage_body_takes_its_inputs_in_table_order():
    # run_stage passes a body its inputs by position, in TABLE order: each
    # parameter after ctx is named by the stem of the file passed to it.
    for name, (body, inputs, _) in TABLE.items():
        parameters = list(inspect.signature(body).parameters)
        assert parameters == ["ctx", *(Path(file).stem for file in inputs)], name
    # Each input is some stage's output, and no output has two producers.
    outputs = [file for _, _, written in TABLE.values() for file in written]
    assert len(outputs) == len(set(outputs))
    assert {file for _, inputs, _ in TABLE.values() for file in inputs} <= set(outputs)


def test_no_stage_body_writes_or_removes_a_file():
    # run_stage alone writes an output directory: a body returns its outputs.
    calls = []
    for name, (body, _, _) in TABLE.items():
        for node in ast.walk(ast.parse(inspect.getsource(body))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in FILE_WRITES:
                    calls.append(f"{body.__name__} ({name}) calls {called}")
    assert calls == []


def except_clauses_naming(tree: ast.AST, name: str, where: str = "") -> list[str]:
    """The function or class, by dotted name, of each except clause in tree
    that names name, alone or in a tuple."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += except_clauses_naming(node, name,
                                           f"{where}.{node.name}" if where else node.name)
            continue
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == name for t in types):
                found.append(where)
        found += except_clauses_naming(node, name, where)
    return found


def test_only_the_command_line_catches_every_package_error():
    # A reader refuses a model answer with UnparseableError, and each caller
    # catches the errors it handles by name; any other error reaches
    # cli.main, which reports it.
    catchers = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
                for where in except_clauses_naming(ast.parse(path.read_text(encoding="utf-8")),
                                                   "EvontreeError")]
    assert catchers == ["cli.main"]
