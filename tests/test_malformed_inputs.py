"""Every input a stage reads, mutated, is either taken or refused with exit
3 naming the file (and, in a triple file, the line): a generated test over
the files of one tiny finished run, each stage that reads the mutated file
run through cli.main on its own copy with no manifest."""

from __future__ import annotations

import copy
import io
import json
import logging
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evontree.cli import EXIT_MISSING_UPSTREAM, EXIT_OK, main
from evontree.pipeline import TABLE
from test_cli import CONFIG_OBJ, write_config

# Each file some stage reads, with the stages that read it.
READERS = {file: [stage for stage, (_, inputs, _) in TABLE.items() if file in inputs]
           for file in sorted({file for _, inputs, _ in TABLE.values() for file in inputs})}

MUTATIONS = ("drop a key", "swap a type", "shorten a list", "lengthen a list",
             "cut at a byte", "insert a non-UTF-8 byte", "empty")
# One value of each JSON type, a swap's replacements.
JSON_TYPES = {"null": None, "boolean": True, "number": 0.5, "string": "x",
              "array": [], "object": {}}


def json_type(value) -> str:
    """The JSON type name of a value json.loads returned."""
    for name, kind in (("null", type(None)), ("boolean", bool), ("number", (int, float)),
                       ("string", str), ("array", list)):
        if isinstance(value, kind):
            return name
    return "object"


def json_paths(value, path: tuple = ()):
    """The path of value and of every value in it, each a tuple of object
    keys and array indexes."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for step, item in items:
        yield from json_paths(item, path + (step,))


def at(value, path: tuple):
    for step in path:
        value = value[step]
    return value


def applies(mutation: str, obj, path: tuple) -> bool:
    """Whether mutation can change the value at path in obj."""
    value = at(obj, path)
    if mutation == "drop a key":
        return bool(path) and isinstance(at(obj, path[:-1]), dict)
    if mutation in ("shorten a list", "lengthen a list"):
        return isinstance(value, list) and bool(value)
    return True


def mutate_value(draw, mutation: str, obj, path: tuple):
    """obj, copied, with mutation made at path."""
    obj = copy.deepcopy(obj)
    value = at(obj, path)
    if mutation == "drop a key":
        del at(obj, path[:-1])[path[-1]]
    elif mutation == "swap a type":
        kind = draw(st.sampled_from(sorted(set(JSON_TYPES) - {json_type(value)})))
        if not path:
            return JSON_TYPES[kind]
        at(obj, path[:-1])[path[-1]] = JSON_TYPES[kind]
    elif mutation == "shorten a list":
        del value[draw(st.integers(0, len(value) - 1))]
    else:
        value.append(copy.deepcopy(value[draw(st.integers(0, len(value) - 1))]))
    return obj


@st.composite
def mutated_inputs(draw, run: Path):
    """(file, its mutated bytes, the number of the line mutated, if the file
    is a triple file and the mutation touched a line)."""
    file = draw(st.sampled_from(sorted(READERS)))
    data = (run / file).read_bytes()
    mutation = draw(st.sampled_from(MUTATIONS))
    triples = file.endswith(".jsonl")
    if mutation == "empty":
        return file, b"", None
    if mutation in ("cut at a byte", "insert a non-UTF-8 byte"):
        at_byte = draw(st.integers(0, len(data) - 1))
        line = data[:at_byte].count(b"\n") + 1 if triples else None
        if mutation == "cut at a byte":
            return file, data[:at_byte], line
        byte = bytes([draw(st.integers(0x80, 0xFF))])
        return file, data[:at_byte] + byte + data[at_byte:], line
    text = data.decode("utf-8")
    lines = io.StringIO(text, newline=None).readlines() if triples else [text]
    number = draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[number])
    paths = [path for path in json_paths(obj) if applies(mutation, obj, path)]
    if not paths:  # a line with no list, as in raw.jsonl, is changed another way
        mutation = "swap a type"
        paths = list(json_paths(obj))
    changed = mutate_value(draw, mutation, obj, draw(st.sampled_from(paths)))
    lines[number] = json.dumps(changed, sort_keys=True, ensure_ascii=False,
                               separators=(",", ":")) + ("\n" if triples else "")
    return file, "".join(lines).encode("utf-8"), number + 1 if triples else None


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A finished run of the CLI tests' config, and a config for its
    copies that shares its response cache."""
    tmp = tmp_path_factory.mktemp("malformed")
    assert main(["run", "--config", str(write_config(tmp, CONFIG_OBJ))]) == EXIT_OK
    shared = {**CONFIG_OBJ, "output": {"dir": "out", "cache_dir": str(tmp / "out" / "cache")}}
    return tmp / "out", write_config(tmp, shared, "shared.json")


def run_logged(argv: list[str]) -> tuple[int, str]:
    """main's exit code for argv, and what evontree logged meanwhile."""
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    logger = logging.getLogger("evontree")
    logger.addHandler(handler)
    try:
        return main(argv), stream.getvalue()
    finally:
        logger.removeHandler(handler)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_input_is_taken_or_refused_with_exit_3(tiny_run, data):
    run, config = tiny_run
    file, mutated, line = data.draw(mutated_inputs(run))
    for stage in READERS[file]:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for artifact in READERS:
                shutil.copyfile(run / artifact, out / artifact)
            (out / file).write_bytes(mutated)
            code, logged = run_logged([stage, "--config", str(config), "--stage-dir", str(out)])
        assert code in (EXIT_OK, EXIT_MISSING_UPSTREAM), (stage, logged)
        assert "Traceback" not in logged, (stage, logged)
        if code == EXIT_MISSING_UPSTREAM:
            named = f"{file} does not parse (line {line}: " if line else file
            assert named in logged, (stage, logged)
