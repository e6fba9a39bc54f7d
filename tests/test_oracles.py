"""The scalar references in oracles.py stay out of the crowdsim package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

import crowdsim
import oracles
from crowdsim.features import ExtractionParams
from crowdsim.scene_library import make_corridor
from crowdsim.simulate import PedestrianSeed, SimulationConfig
from crowdsim.social_force import SFParams


def _assigned_attributes(tree) -> set:
    """Names assigned as attributes (`obj.name = ...`, also as an element
    of a tuple target) anywhere in tree."""
    targets = [t for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    targets += [e for t in targets if isinstance(t, ast.Tuple) for e in t.elts]
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
        # (a helper named <class>_<name> was that class's method <name> or
        # __<name>__)
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                prefix = name.strip("_").lower() + "_"
                moved = {r[len(prefix):] for r in references if r.startswith(prefix)}
                moved |= {f"__{m}__" for m in moved}
                assert not (references | moved) & set(vars(obj)), f"{module.__name__}.{name}"
    assert not references & set(vars(crowdsim))


def test_reference_subclasses_keep_their_bookkeeping_out_of_the_package():
    # A reference subclass of a package class (DequeWindowSimulator,
    # ListSimulator) keeps its own state, such as the per-slot window
    # deques or the per-pedestrian records and their `_proposal`s: no
    # mutable class of its base's module has such an attribute as a field
    # or class attribute, and that module assigns none.  A frozen dataclass
    # (a seed, config or result value) cannot hold run state.
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
            frozen = getattr(getattr(obj, "__dataclass_params__", None), "frozen", False)
            if isinstance(obj, type) and obj.__module__ == module.__name__ and not frozen:
                fields = set(vars(obj)) | set(getattr(obj, "__dataclass_fields__", ()))
                assert not own & fields, f"{module.__name__}.{name}"
    assert subclasses


def test_list_references_never_run_the_slot_bookkeeping():
    # The list references replace every stage of Simulator's step: a run of
    # each commits through its own records and leaves the package's slot
    # arrays as __init__ made them.
    scene = make_corridor()
    seeds = [PedestrianSeed("a", 0, np.tile([2.0, 1.0], (8, 1))),
             PedestrianSeed("b", 2, np.tile([3.0, 2.0], (8, 1)))]
    config = SimulationConfig(scene=scene, dt=0.04, pedestrians=tuple(seeds),
                              params=ExtractionParams(window=8), max_steps=30)
    for sim in (oracles.ListSimulator(config, oracles.ConstantVelocityOracle((1.0, 0.2))),
                oracles.ListSocialForceSimulator(config, SFParams(), {"a": 1.4, "b": 1.2})):
        result = sim.run()
        assert sim.step_index > 8 and sum(len(t.positions) for t in result.trajectories) > 30
        assert not sim._length.any() and not sim._pos.any() and not sim._vel.any()
        assert [len(p.positions) for p in sim._peds] == [len(t.positions)
                                                          for t in result.trajectories]
