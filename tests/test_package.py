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
    # a dataset is passed to train and evaluate as its manifest, and a model to
    # evaluate as the checkpoint.json that train writes
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.split() for line in block.splitlines() if line.startswith("varsparse ")]
    assert {words[1] for words in lines} == {"generate", "check-design", "train", "evaluate", "reproduce"}
    parsed = [varsparse.cli.build_parser().parse_args(words[1:]) for words in lines]
    data = [args.data for args in parsed if getattr(args, "data", None)]
    assert len(data) == 2 and all(Path(path).name == "manifest.json" for path in data)
    checkpoints = [args.checkpoint for args in parsed if getattr(args, "checkpoint", None)]
    assert [Path(path).name for path in checkpoints] == ["checkpoint.json"]


def test_readme_csv_schemas_are_the_fields_of_the_row_types():
    # the two fenced header lines under "### CSV schemas" are the columns the
    # writers put out: ResultRow's fields for <grid>.csv, SummaryRow's for the summary
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### CSV schemas\n", 1)[1].split("\n## ", 1)[0]
    headers = re.findall(r"^```\n(.*?)\n```$", section, flags=re.M)
    rows = (varsparse.experiments.ResultRow, varsparse.experiments.SummaryRow)
    assert headers == [",".join(f.name for f in dataclasses.fields(cls)) for cls in rows]


def _json_decoders(node: ast.AST, scope: str) -> list[str]:
    """The scope (module, then class and function names) of each call under node
    to json.load or json.loads, and of each import from json, which would hide one."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and ast.unparse(child.func) in ("json.load", "json.loads"):
            found.append(scope)
        if isinstance(child, ast.ImportFrom) and child.module == "json":
            found.append(f"{scope} imports from json")
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        found += _json_decoders(child, f"{scope}.{child.name}" if named else scope)
    return found


def test_read_json_is_the_one_reader_of_json_files():
    # experiments.read_json parses and interprets every input file and puts the
    # path in front of each error; a second decoder would fail without naming
    # its file. data.load decodes the header of the container only the
    # benchmark reads. A design or a model crosses modules as a to_dict dict,
    # never as JSON text.
    decoders = [
        site
        for path in sorted((ROOT / "src" / "varsparse").glob("*.py"))
        for site in _json_decoders(ast.parse(path.read_text()), path.stem)
    ]
    assert decoders == ["data.load", "experiments.read_json"]
    for cls in (varsparse.EnvironmentSet, varsparse.UnmixingModel):
        assert [name for name in ("to_json", "from_json") if hasattr(cls, name)] == []


def _imported_modules(tree: ast.AST) -> list[str]:
    """The module named by each import statement under tree."""
    return [
        name
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]


def test_no_module_imports_configparser():
    # flags and the JSON documents read_json reads are the command line's only
    # inputs; a config-file reader would be a second format for the same fields
    importers = [
        path.stem
        for path in sorted((ROOT / "src" / "varsparse").glob("*.py"))
        if "configparser" in _imported_modules(ast.parse(path.read_text()))
    ]
    assert importers == []
