"""The semantic model shares no code with the pipeline it checks: it
imports from the type checker and the syntax only, so no defect in
reduction, the phases, the substitution layer or the witness can reach the
oracle that judges their output."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"check", "syntax"}


def package_imports(tree):
    """The package modules a module imports, wherever the import stands."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "coersimp":
                parts = node.module.split(".")[1:]
            else:
                continue
            yield from parts[:1] or (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "coersimp":
                    yield parts[1] if len(parts) > 1 else "coersimp"


def test_the_model_imports_only_the_checker_and_the_syntax():
    tree = ast.parse((SRC / "coersimp" / "semantics.py").read_text())
    assert set(package_imports(tree)) <= ALLOWED


def test_loading_the_model_loads_no_pipeline_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, coersimp.semantics; print(sorted(m for m in "
         "sys.modules if m.startswith('coersimp')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == str(["coersimp", "coersimp.check", "coersimp.semantics",
                               "coersimp.syntax"])


def test_the_import_guard_sees_each_form():
    source = """
import itertools
from .check import wf_vtype
from . import witness
from .subst import apply_value
import coersimp.polarity
from coersimp.phases import simplify
from coersimp import graph
def lazy():
    from .reduce import reduce_context
"""
    assert sorted(package_imports(ast.parse(source))) == [
        "check", "graph", "phases", "polarity", "reduce", "subst", "witness"]
