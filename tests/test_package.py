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
