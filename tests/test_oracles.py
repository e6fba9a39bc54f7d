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
        # nor as a method or attribute of one of its classes
        # (a helper named <class>_<name> was that class's method <name>)
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                prefix = name.strip("_").lower() + "_"
                moved = {r[len(prefix):] for r in references if r.startswith(prefix)}
                assert not (references | moved) & set(vars(obj)), f"{module.__name__}.{name}"
    assert not references & set(vars(crowdsim))
