"""The scalar references in oracles.py stay out of the crowdsim package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import crowdsim


def test_no_crowdsim_module_defines_or_reexports_a_reference():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    references = {node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert references
    for info in pkgutil.iter_modules(crowdsim.__path__):
        module = importlib.import_module(f"crowdsim.{info.name}")
        assert not references & set(vars(module)), module.__name__
    assert not references & set(vars(crowdsim))
