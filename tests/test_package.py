import ast
import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import varsparse

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = [m.name for m in pkgutil.iter_modules(varsparse.__path__)]
for _name in SUBMODULES:
    importlib.import_module(f"varsparse.{_name}")  # so that varsparse.<name> resolves


def test_every_exported_name_resolves():
    # a stale entry would break only `from varsparse import *`
    assert [name for name in varsparse.__all__ if not hasattr(varsparse, name)] == []


def _cited(dotted: str):
    """The varsparse object a dotted name such as ica._TOL or
    varsparse.data.block_moments names; a dataclass field names its class.
    Raises AttributeError if it names nothing."""
    parts = dotted.split(".")
    parts = parts[1:] if parts[0] == "varsparse" else parts
    obj = varsparse
    for i, part in enumerate(parts):
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        obj = obj if part in fields and i == len(parts) - 1 else getattr(obj, part)
    return obj


def test_readme_cites_only_names_and_files_that_exist():
    # README's inline code outside fenced blocks: each dotted name rooted in
    # varsparse must name an attribute or a benchmark metric, and a name
    # quoted with its value (`ica._TOL = 1e-6`) must have that value
    readme = (ROOT / "README.md").read_text()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    roots = {"varsparse", *SUBMODULES, *varsparse.__all__}
    stale = []
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S)):
        for dotted in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            if dotted.split(".")[0] not in roots or dotted in metric_names:
                continue
            try:
                value = _cited(dotted)
            except AttributeError:
                stale.append(dotted)
                continue
            quoted = re.fullmatch(rf"{re.escape(dotted)} = ([^=]+)", span)
            if quoted and value != ast.literal_eval(quoted.group(1)):
                stale.append(f"{span} (it is {value!r})")
    stale += [f for f in re.findall(r"BENCH_\d+\.json", readme) if not (ROOT / f).is_file()]
    assert stale == [], f"README cites names or files that do not exist: {sorted(set(stale))}"


def test_readme_commands_parse_and_read_manifests():
    # every `varsparse …` line of the Command line block is a valid invocation,
    # and a dataset is passed to train and evaluate as its manifest
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.split() for line in block.splitlines() if line.startswith("varsparse ")]
    assert {words[1] for words in lines} == {"generate", "check-design", "train", "evaluate", "reproduce"}
    parsed = [varsparse.cli.build_parser().parse_args(words[1:]) for words in lines]
    data = [args.data for args in parsed if getattr(args, "data", None)]
    assert len(data) == 2 and all(Path(path).name == "manifest.json" for path in data)


def _reads_json_text(function: ast.AST) -> bool:
    """Does function both read a file's text and decode JSON, or decode a file object?"""
    called = {ast.unparse(n.func) for n in ast.walk(function) if isinstance(n, ast.Call)}
    reads_text = any(name.endswith(".read_text") for name in called)
    return "json.load" in called or (reads_text and "json.loads" in called)


def test_read_json_is_the_one_reader_of_json_files():
    # experiments.read_json names the file it cannot parse; a second reader would
    # fail with the decoder's message alone. A design crosses modules as
    # EnvironmentSet.to_dict's dict, never as JSON text.
    readers = [
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "src" / "varsparse").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and _reads_json_text(node)
    ]
    assert readers == ["experiments.read_json"]
    assert [name for name in ("to_json", "from_json") if hasattr(varsparse.EnvironmentSet, name)] == []
