"""Parametric builders for the standard experiment geometries.

Dimensions follow the usual laboratory setups: a bottleneck room with a
constriction of width b_w, a straight corridor, a 90-degree corner and a
T-junction, plus a composite scenario chaining bottleneck -> corner ->
T-junction -> corridor.  Widths are given in centimetres to match the
run naming convention (W120, E080-C300, ...); everything else is metres.
"""
from __future__ import annotations

import numpy as np

from .geometry import ModuleRegion, Scene, load_scene


def _seg(p0, p1) -> list:
    return [list(map(float, p0)), list(map(float, p1))]


def make_bottleneck(width_cm: float = 120, room_length: float = 4.0,
                    room_width: float = 4.0) -> Scene:
    """Room ending in a centred constriction of width width_cm."""
    b = width_cm / 100.0
    hw = room_width / 2.0
    if not 0 < b < room_width:
        raise ValueError("bottleneck width must be smaller than the room width")
    boundary = np.array([[-room_length, -hw], [0.0, -hw], [0.0, hw], [-room_length, hw]])
    walls = np.array([
        _seg((-room_length, -hw), (0.0, -hw)),
        _seg((-room_length, hw), (0.0, hw)),
        _seg((0.0, -hw), (0.0, -b / 2)),
        _seg((0.0, b / 2), (0.0, hw)),
    ])
    module = ModuleRegion(
        id="bottleneck", kind="bottleneck",
        boundary=boundary, walls=walls,
        exit=np.array(_seg((0.0, -b / 2), (0.0, b / 2))),
        entries=np.array([_seg((-room_length, -hw), (-room_length, hw))]),
        measurement_area=(-1.0, -1.0, 0.0, 1.0),
        focus_area=(-room_length, -hw, 0.0, hw),
    )
    scene = Scene(modules=(module,), successor={"bottleneck": None})
    scene.validate()
    return scene


def make_corridor(width_cm: float = 300, length: float = 6.0) -> Scene:
    """Straight corridor along +x with open entry and exit faces."""
    w = width_cm / 100.0
    boundary = np.array([[0.0, 0.0], [length, 0.0], [length, w], [0.0, w]])
    walls = np.array([
        _seg((0.0, 0.0), (length, 0.0)),
        _seg((0.0, w), (length, w)),
    ])
    module = ModuleRegion(
        id="corridor", kind="corridor",
        boundary=boundary, walls=walls,
        exit=np.array(_seg((length, 0.0), (length, w))),
        entries=np.array([_seg((0.0, 0.0), (0.0, w))]),
        measurement_area=(length / 2 - 1.0, 0.0, length / 2 + 1.0, w),
        focus_area=(0.0, 0.0, length, w),
    )
    scene = Scene(modules=(module,), successor={"corridor": None})
    scene.validate()
    return scene


def make_corner(width_cm: float = 300, arm: float = 5.0) -> Scene:
    """L-shaped 90-degree corner: entry along +x, exit along +y."""
    w = width_cm / 100.0
    if arm <= w:
        raise ValueError("arm length must exceed the corridor width")
    boundary = np.array([
        [0.0, 0.0], [arm, 0.0], [arm, arm], [arm - w, arm], [arm - w, w], [0.0, w],
    ])
    walls = np.array([
        _seg((0.0, 0.0), (arm, 0.0)),
        _seg((arm, 0.0), (arm, arm)),
        _seg((0.0, w), (arm - w, w)),
        _seg((arm - w, w), (arm - w, arm)),
    ])
    module = ModuleRegion(
        id="corner", kind="corner",
        boundary=boundary, walls=walls,
        exit=np.array(_seg((arm - w, arm), (arm, arm))),
        entries=np.array([_seg((0.0, 0.0), (0.0, w))]),
        measurement_area=(arm - w, 0.0, arm, w),
        focus_area=(0.0, 0.0, arm, arm),
    )
    scene = Scene(modules=(module,), successor={"corner": None})
    scene.validate()
    return scene


def make_t_junction(width_cm: float = 300, arm: float = 4.0, stem: float = 4.0) -> Scene:
    """Two opposing arms merging into a perpendicular stem along +y."""
    w = width_cm / 100.0
    hw = w / 2.0
    if arm <= hw:
        raise ValueError("arm length must exceed half the corridor width")
    boundary = np.array([
        [-arm, -w], [arm, -w], [arm, 0.0], [hw, 0.0], [hw, stem],
        [-hw, stem], [-hw, 0.0], [-arm, 0.0],
    ])
    walls = np.array([
        _seg((-arm, -w), (arm, -w)),
        _seg((-arm, 0.0), (-hw, 0.0)),
        _seg((hw, 0.0), (arm, 0.0)),
        _seg((-hw, 0.0), (-hw, stem)),
        _seg((hw, 0.0), (hw, stem)),
    ])
    module = ModuleRegion(
        id="t_junction", kind="t_junction",
        boundary=boundary, walls=walls,
        exit=np.array(_seg((-hw, stem), (hw, stem))),
        entries=np.array([
            _seg((-arm, -w), (-arm, 0.0)),
            _seg((arm, -w), (arm, 0.0)),
        ]),
        measurement_area=(-hw, -w, hw, 0.0),
        focus_area=(-arm, -w, arm, stem),
    )
    scene = Scene(modules=(module,), successor={"t_junction": None})
    scene.validate()
    return scene


def make_composite(bottleneck_cm: float = 160, entry_cm: float = 80,
                   width_cm: float = 240) -> Scene:
    """Composite scenario: bottleneck -> corner -> T-junction -> corridor.

    Pedestrians enter through the bottleneck room or through the gap in
    the T-junction's top face and leave through the corridor's far end.
    """
    bw = bottleneck_cm / 100.0
    be = entry_cm / 100.0
    w = width_cm / 100.0
    if not 0 < bw < 4.0 or not 0 < be < w:
        raise ValueError("bottleneck/entry width out of range for this layout")

    # Bottleneck room: x in [-4, 0], y in [-2, 2], gap of width bw at x=0.
    bottleneck = ModuleRegion(
        id="bottleneck", kind="bottleneck",
        boundary=np.array([[-4.0, -2.0], [0.0, -2.0], [0.0, 2.0], [-4.0, 2.0]]),
        walls=np.array([
            _seg((-4.0, -2.0), (0.0, -2.0)),
            _seg((-4.0, 2.0), (0.0, 2.0)),
            _seg((0.0, -2.0), (0.0, -bw / 2)),
            _seg((0.0, bw / 2), (0.0, 2.0)),
        ]),
        exit=np.array(_seg((0.0, -bw / 2), (0.0, bw / 2))),
        entries=np.array([_seg((-4.0, -2.0), (-4.0, 2.0))]),
        measurement_area=(-1.0, -1.0, 0.0, 1.0),
        focus_area=(-4.0, -2.0, 0.0, 2.0),
    )

    # Corner turns +x flow into +y; junction with the bottleneck is sealed
    # by a virtual wall while a pedestrian is inside the corner.
    corner = ModuleRegion(
        id="corner", kind="corner",
        boundary=np.array([[0.0, -2.0], [w, -2.0], [w, 2.0], [0.0, 2.0]]),
        walls=np.array([
            _seg((0.0, -2.0), (w, -2.0)),
            _seg((w, -2.0), (w, 2.0)),
            _seg((0.0, -2.0), (0.0, -bw / 2)),
            _seg((0.0, bw / 2), (0.0, 2.0)),
        ]),
        exit=np.array(_seg((0.0, 2.0), (w, 2.0))),
        virtual_walls=np.array([_seg((0.0, -bw / 2), (0.0, bw / 2))]),
        measurement_area=(0.0, -1.0, w, 1.0),
        focus_area=(0.0, -2.0, w, 2.0),
    )

    # T-junction bar: x in [0, w], y in [2, 6.8]; fresh entrants drop in
    # through the top gap, the corner stream arrives from below, and the
    # merged flow leaves through the stem opening on the right face.
    top = 6.8
    mid = (2.0 + top) / 2.0
    stem_lo, stem_hi = mid - w / 2.0, mid + w / 2.0
    gap_lo, gap_hi = w / 2.0 - be / 2.0, w / 2.0 + be / 2.0
    t_junction = ModuleRegion(
        id="t_junction", kind="t_junction",
        boundary=np.array([[0.0, 2.0], [w, 2.0], [w, top], [0.0, top]]),
        walls=np.array([
            _seg((0.0, 2.0), (0.0, top)),
            _seg((w, 2.0), (w, stem_lo)),
            _seg((w, stem_hi), (w, top)),
            _seg((0.0, top), (gap_lo, top)),
            _seg((gap_hi, top), (w, top)),
        ]),
        exit=np.array(_seg((w, stem_lo), (w, stem_hi))),
        entries=np.array([_seg((gap_lo, top), (gap_hi, top))]),
        virtual_walls=np.array([_seg((0.0, 2.0), (w, 2.0))]),
        measurement_area=(0.0, 3.0, w, 5.0),
        focus_area=(0.0, 2.0, w, top),
    )

    corridor = ModuleRegion(
        id="corridor", kind="corridor",
        boundary=np.array([[w, stem_lo], [w + 5.0, stem_lo], [w + 5.0, stem_hi], [w, stem_hi]]),
        walls=np.array([
            _seg((w, stem_lo), (w + 5.0, stem_lo)),
            _seg((w, stem_hi), (w + 5.0, stem_hi)),
        ]),
        exit=np.array(_seg((w + 5.0, stem_lo), (w + 5.0, stem_hi))),
        virtual_walls=np.array([_seg((w, stem_lo), (w, stem_hi))]),
        measurement_area=(w + 1.0, stem_lo, w + 3.0, stem_hi),
        focus_area=(w, stem_lo, w + 5.0, stem_hi),
    )

    scene = Scene(
        modules=(bottleneck, corner, t_junction, corridor),
        successor={"bottleneck": "corner", "corner": "t_junction",
                   "t_junction": "corridor", "corridor": None},
    )
    scene.validate()
    return scene


BUILTIN_SCENES = {
    "bottleneck": make_bottleneck,
    "corridor": make_corridor,
    "corner": make_corner,
    "t_junction": make_t_junction,
    "composite": make_composite,
}


def builtin_scene(name: str, **dims) -> Scene:
    """Build one of the standard scenes, e.g. builtin_scene('bottleneck', width_cm=160)."""
    try:
        builder = BUILTIN_SCENES[name]
    except KeyError:
        raise ValueError(f"unknown scene {name!r}; choose from {sorted(BUILTIN_SCENES)}") from None
    return builder(**dims)


def resolve_scene(spec: str) -> Scene:
    """A builtin scene at its default dimensions by name (e.g. 'corridor'), else a JSON path."""
    if spec in BUILTIN_SCENES:
        return builtin_scene(spec)
    return load_scene(spec)
