"""README is the reference for the config keys and the exit codes: its
tables must name every key the config sections declare, and every code
cli.main returns with the errors that map to it."""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import evontree.cli as cli
from evontree.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def table(header: str) -> list[list[str]]:
    """The cells of each row of README's table under header, a line of it."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def dotted_keys(cls, prefix: str = "") -> list[str]:
    """Every key of the config section cls, in declaration order, with the
    keys of its nested sections in place of theirs."""
    keys = []
    hints = get_type_hints(cls)
    for f in fields(cls):
        # A nested section is annotated as its class, or as its class | None.
        sections = [tp for tp in (hints[f.name], *get_args(hints[f.name])) if is_dataclass(tp)]
        if sections:
            keys += dotted_keys(sections[0], f"{prefix}{f.name}.")
        else:
            keys.append(prefix + f.name)
    return keys


def returned_codes() -> dict[int, set[str]]:
    """Each exit code cli.main returns, with the errors whose handlers
    return it, as the source names them."""
    codes: dict[int, set[str]] = {}
    tree = ast.parse(inspect.getsource(cli.main))
    for node in ast.walk(tree):
        if isinstance(node, ast.Return):
            codes.setdefault(getattr(cli, node.value.id), set())
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            [ret] = [stmt for stmt in node.body if isinstance(stmt, ast.Return)]
            codes.setdefault(getattr(cli, ret.value.id), set()).update(map(ast.unparse, caught))
    return codes


def test_every_config_key_has_a_row():
    keys = dotted_keys(RunConfig)
    assert "model.synthetic.noise.jitter" in keys and "output.cache_dir" in keys
    rows = table("| key | default | values |")
    assert [row[0].strip("`") for row in rows] == keys


def test_every_exit_code_has_a_row_naming_its_errors():
    codes = returned_codes()
    assert codes[cli.EXIT_CONFIG] == {"ConfigError"} and codes[cli.EXIT_OK] == set()
    rows = {int(row[0]): set(re.findall(r"`([\w.]+)`", row[-1]))
            for row in table("| code | meaning | errors |")}
    assert set(rows) == set(codes)
    for code, errors in codes.items():
        assert errors <= rows[code], code
