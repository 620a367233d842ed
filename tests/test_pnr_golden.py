"""Golden P&R identity: placements, site-map order, routes and effort.

The placer and router are deterministic, so a refactor that claims to
leave their answers unchanged can be held to it exactly.  Every case
below pins sha256 digests of the sorted ``Placement.pos``, the
``clb_at`` insertion order (bitstream assembly iterates it), and the
route ``edges``/``sink_hops``, plus the exact ``EffortMeter`` move and
expansion counts.  A change that alters a single annealing move or A*
expansion fails here, across commits and whatever machine runs it.

If an intended algorithm change moves these values, re-pin them in the
same change and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api.design import device_for
from repro.generators import build_design
from repro.geometry import Rect
from repro.pnr import EFFORT_PRESETS, EffortMeter, PlaceConstraints
from repro.pnr.flow import full_place_and_route, replace_region
from repro.pnr.placer import place_design
from repro.pnr.router import grow_steiner_tree

FAST = EFFORT_PRESETS["fast"]


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _placement_digests(placement) -> dict[str, str]:
    return {
        "pos": _sha(sorted(placement.pos.items())),
        "clb_at": _sha(list(placement.clb_at.items())),
    }


def _route_digest(routes) -> str:
    return _sha([
        (idx, sorted(tree.edges), sorted(tree.sink_hops.items()))
        for idx, tree in sorted(routes.items())
    ])


def _initial(design: str):
    bundle = build_design(design)
    packed = bundle.packed
    device = device_for(packed)
    meter = EffortMeter()
    layout = full_place_and_route(
        packed, device, seed=1, preset=FAST, meter=meter,
        strict_routing=False,
    )
    return layout, meter


@pytest.fixture(scope="module")
def sym9():
    return _initial("9sym")


def _summary(placement, routes, meter) -> dict:
    out = _placement_digests(placement)
    if routes is not None:
        out["routes"] = _route_digest(routes)
    out["place_moves"] = meter.place_moves
    out["route_expansions"] = meter.route_expansions
    return out


GOLDEN_INITIAL = {
    "9sym": {
        "pos": "487779429f110fdc9bd0bbc78c3b4f06790de788c9b0f3742607cb3047407932",
        "clb_at": "981cb5691b369b80a3ab0dde4a836cf0733fc476149869fa55643ff00b192946",
        "routes": "4db21ecbe482aaa4e42f87463ceb7f697832f2f30adf51c70f8010716170bb50",
        "place_moves": 336,
        "route_expansions": 1548,
    },
    "s9234": {
        "pos": "9fcaba04f580955aeba4f485753bc1637138d29b7177a1a2abe979d5c1b4c9b2",
        "clb_at": "4e4654da89c590fb8a569f719d6b033d39c6b5f89a907b60d470c53554b5740d",
        "routes": "d3f8323b536337c62a937a9ea87a67dc9fd13da9ee9eeba9df8b3cee41f52dec",
        "place_moves": 3000,
        "route_expansions": 9822,
    },
}


@pytest.mark.parametrize("design", sorted(GOLDEN_INITIAL))
def test_full_place_and_route_golden(design, sym9):
    layout, meter = sym9 if design == "9sym" else _initial(design)
    got = _summary(layout.placement, layout.routes, meter)
    assert got == GOLDEN_INITIAL[design]


GOLDEN_REPLACE_REGION = {
    "pos": "5ca2f921b5f27630c730356f4c6ffdff77d9e42efc524f8c8090a5b48784111a",
    "clb_at": "8dbd783b00a4fd982876574ae386d53a7b6bb20e5453a957f9b622656a26aa44",
    "routes": "6284fb86ef473072b38088081542ad4ec43d84cb1e11e4ef72f535bc47e02932",
    "place_moves": 300,
    "route_expansions": 380,
}


def _replace_region_case(sym9) -> dict:
    """Tile re-P&R: ``regions`` + ``free_sites`` from the tiling primitive."""
    layout = sym9[0].copy()
    device = layout.device
    region = Rect(0, 0, device.nx // 2, device.ny // 2)
    movable = set(layout.placement.blocks_in_region(region))
    assert movable
    meter = EffortMeter()
    replace_region(layout, movable, [region], seed=5, preset=FAST,
                   meter=meter)
    return _summary(layout.placement, layout.routes, meter)


def test_replace_region_golden(sym9):
    assert _replace_region_case(sym9) == GOLDEN_REPLACE_REGION


GOLDEN_CONSTRAINED_PLACE = {
    "pos": "726aa386ce7b3b037d165cae54510d3aa416ac6d93cd04049db998484bb693ea",
    "clb_at": "e5d1413524147548bf623a0fffe4446b28f40480a7a6e880f8a5dc499da8a37c",
    "place_moves": 332,
    "route_expansions": 0,
}


def _constrained_place_case(sym9) -> dict:
    """``regions``, ``locked`` and ``free_sites`` together, from a start."""
    layout = sym9[0]
    packed, device = layout.packed, layout.device
    window = Rect(1, 1, device.nx - 2, device.ny - 2)
    inside = sorted(layout.placement.blocks_in_region(window))
    locked = set(inside[:4])
    lower = Rect(0, 0, device.nx - 1, device.ny // 2)
    regions = {
        b: lower for b in inside[4::3]
        if lower.contains(*layout.placement.pos[b])
    }
    free = {
        (x, y) for x in range(device.nx) for y in range(device.ny)
        if (x + 2 * y) % 5 != 0
    } | {layout.placement.pos[b] for b in inside}
    meter = EffortMeter()
    placement = place_design(
        packed, device, seed=9, preset=FAST, meter=meter,
        initial=layout.placement,
        constraints=PlaceConstraints(
            regions=regions, locked=locked, free_sites=free,
        ),
        movable=set(inside),
    )
    for b in locked:
        assert placement.pos[b] == layout.placement.pos[b]
    for b, rect in regions.items():
        assert rect.contains(*placement.pos[b])
    return _summary(placement, None, meter)


def test_constrained_place_golden(sym9):
    assert _constrained_place_case(sym9) == GOLDEN_CONSTRAINED_PLACE


GOLDEN_STEINER = {
    "cells": "b7eccae7299fee647e7158e5c8695227f0f1df1ed5ce5b9f7cab79d6c3d0d459",
    "edges": "84a49d14b00508278c719f8f07ee3f517d5e4e36621a03743921e7436581de0f",
    "hops": "897cbb5b60499c89d4d0bb5fd515d07c69411aad06eca75e9ba18bbb4edc520b",
    "route_expansions": 61,
}


def _steiner_case(sym9) -> dict:
    layout = sym9[0]
    device = layout.device
    state = layout.state.copy()
    seeds = {(0, 0), (1, 0)}
    targets = [
        (device.nx - 1, device.ny - 1), (device.nx // 2, 2),
        (3, device.ny - 2), (-1, device.ny // 2),
    ]
    meter = EffortMeter()
    cells, edges, hops = grow_steiner_tree(
        device, seeds, targets, state, meter=meter,
    )
    return {
        "cells": _sha(sorted(cells)),
        "edges": _sha(sorted(edges)),
        "hops": _sha(sorted(hops.items())),
        "route_expansions": meter.route_expansions,
    }


def test_grow_steiner_tree_golden(sym9):
    assert _steiner_case(sym9) == GOLDEN_STEINER
