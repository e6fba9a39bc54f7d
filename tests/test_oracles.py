"""The scalar references in oracles.py stay out of the crowdsim package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import crowdsim
import oracles


def _assigned_attributes(tree) -> set:
    """Names assigned as attributes (`obj.name = ...`) anywhere in tree."""
    targets = [t for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    return {t.attr for t in targets if isinstance(t, ast.Attribute)}


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


def test_reference_subclasses_keep_their_bookkeeping_out_of_the_package():
    # A reference subclass of a package class (DequeWindowSimulator) keeps
    # its own state, such as the per-pedestrian `window` deques: no class of
    # its base's module has such an attribute as a field or class attribute,
    # and that module assigns none.
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    subclasses = 0
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [b for b in getattr(oracles, node.name).__mro__[1:]
                 if b.__module__.startswith("crowdsim.")]
        if not bases:
            continue
        subclasses += 1
        own = _assigned_attributes(node)
        assert own, node.name
        module = importlib.import_module(bases[0].__module__)
        assert not own & _assigned_attributes(ast.parse(Path(module.__file__).read_text()))
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                fields = set(vars(obj)) | set(getattr(obj, "__dataclass_fields__", ()))
                assert not own & fields, f"{module.__name__}.{name}"
    assert subclasses
