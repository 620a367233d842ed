"""Simulated-annealing placer: legality, constraints, determinism."""

import pytest

from repro.arch import custom_device, pick_device
from repro.errors import PlacementError
from repro.geometry import Rect
from repro.pnr import EFFORT_PRESETS, EffortMeter, PlaceConstraints, Placement
from repro.pnr.placer import place_design, q_factor
from tests.conftest import fresh_packed_design


def test_q_factor_monotone():
    values = [q_factor(t) for t in range(2, 60)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_placement_is_legal():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    placement = place_design(packed, device, seed=1,
                             preset=EFFORT_PRESETS["fast"])
    placement.check_complete()
    # no two CLBs share a site
    assert len(placement.clb_at) == packed.n_clbs


def test_determinism_same_seed():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    p1 = place_design(packed, device, seed=42, preset=EFFORT_PRESETS["fast"])
    p2 = place_design(packed, device, seed=42, preset=EFFORT_PRESETS["fast"])
    assert p1.pos == p2.pos


def test_different_seeds_differ():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    p1 = place_design(packed, device, seed=1, preset=EFFORT_PRESETS["fast"])
    p2 = place_design(packed, device, seed=2, preset=EFFORT_PRESETS["fast"])
    assert p1.pos != p2.pos


def test_region_constraints_respected():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=1.5,
                         min_io=len(packed.io_blocks()))
    region = Rect(0, 0, device.nx - 1, 2)
    constraints = PlaceConstraints(
        regions={b.index: region for b in packed.clb_blocks()}
    )
    placement = place_design(
        packed, device, seed=3, preset=EFFORT_PRESETS["fast"],
        constraints=constraints,
    )
    for block in packed.clb_blocks():
        assert region.contains(*placement.site_of(block.index))


def test_free_sites_constraint():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=1.5,
                         min_io=len(packed.io_blocks()))
    allowed = {(x, y) for x in range(device.nx) for y in range(device.ny)
               if (x + y) % 2 == 0}
    constraints = PlaceConstraints(free_sites=allowed)
    if len(allowed) < packed.n_clbs:
        pytest.skip("checkerboard too small")
    placement = place_design(
        packed, device, seed=3, preset=EFFORT_PRESETS["fast"],
        constraints=constraints,
    )
    for block in packed.clb_blocks():
        assert placement.site_of(block.index) in allowed


def test_locked_blocks_do_not_move():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    base = place_design(packed, device, seed=5, preset=EFFORT_PRESETS["fast"])
    locked = {b.index for b in packed.clb_blocks()[:3]}
    frozen_sites = {b: base.site_of(b) for b in locked}
    result = place_design(
        packed, device, seed=9, preset=EFFORT_PRESETS["fast"],
        initial=base, constraints=PlaceConstraints(locked=locked),
    )
    for b, site in frozen_sites.items():
        assert result.site_of(b) == site


def test_effort_is_metered():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    meter = EffortMeter()
    place_design(packed, device, seed=1, preset=EFFORT_PRESETS["fast"],
                 meter=meter)
    assert meter.place_moves > 0


def test_overfull_region_raises():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    tiny = Rect(0, 0, 0, 0)
    constraints = PlaceConstraints(
        regions={b.index: tiny for b in packed.clb_blocks()}
    )
    with pytest.raises(PlacementError):
        place_design(packed, device, seed=1, constraints=constraints)


def anneal_state(packed, device, placement):
    """Annealing state over every CLB, unconstrained."""
    from repro.pnr.placer import _AnnealState
    from repro.rng import make_rng

    return _AnnealState(
        packed, device, placement, PlaceConstraints(),
        {b.index for b in packed.clb_blocks()}, make_rng(7, "anneal-test"),
    )


def test_region_must_hold_start_site():
    """An annealed block's region must contain the site it starts on."""
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    base = place_design(packed, device, seed=5, preset=EFFORT_PRESETS["fast"])
    block = packed.clb_blocks()[0].index
    away = (1, 1) if base.site_of(block) == (0, 0) else (0, 0)
    constraints = PlaceConstraints(regions={block: Rect(*away, *away)})
    with pytest.raises(PlacementError):
        place_design(packed, device, seed=5, preset=EFFORT_PRESETS["fast"],
                     initial=base, constraints=constraints, movable={block})


def test_initial_temperature_restores_placement():
    """The T0 sampling walk must not leak into the starting placement."""
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    placement = place_design(packed, device, seed=7,
                             preset=EFFORT_PRESETS["fast"])
    state = anneal_state(packed, device, placement)
    before_pos = dict(placement.pos)
    before_clb_at = dict(placement.clb_at)
    before_costs = list(state.cost)

    temperature = state.initial_temperature(EffortMeter())
    assert temperature > 0
    assert placement.pos == before_pos
    assert placement.clb_at == before_clb_at
    # cost caches were rebuilt against the restored placement
    assert state.cost == before_costs
    fresh = anneal_state(packed, device, placement)
    assert fresh.box == state.box
    # and the arrays were reloaded from it
    assert (fresh.px, fresh.py, fresh.occ) == (state.px, state.py, state.occ)


def test_bbox_shift_matches_scan(styr_bundle):
    """Incremental bbox updates agree with a full terminal rescan."""
    from repro.api.design import device_for
    from repro.pnr.placer import _bbox_shift
    from repro.rng import make_rng

    packed = styr_bundle.packed
    device = device_for(packed)
    placement = place_design(packed, device, seed=1,
                             preset=EFFORT_PRESETS["fast"])
    state = anneal_state(packed, device, placement)
    k = max(range(len(state.terms)), key=lambda k: len(state.terms[k]))
    terms = state.terms[k]
    assert len(terms) >= 6
    px, py = state.px, state.py

    rng = make_rng(11, "bbox")
    entry = state.scan(k)
    for _ in range(500):
        b = terms[rng.randrange(len(terms))]
        nx, ny = rng.randrange(12), rng.randrange(12)
        shifted = _bbox_shift(entry, px[b], py[b], nx, ny)
        px[b], py[b] = nx, ny
        entry = state.scan(k) if shifted is None else shifted
        assert entry == state.scan(k)


def test_placement_site_bookkeeping():
    packed = fresh_packed_design()
    device = custom_device(20, 20)
    placement = Placement(device, packed)
    clb = packed.clb_blocks()[0]
    placement.place_clb(clb.index, (3, 4))
    assert placement.site_of(clb.index) == (3, 4)
    placement.move_clb(clb.index, (5, 5))
    assert (3, 4) not in placement.clb_at
    placement.remove(clb.index)
    assert not placement.is_placed(clb.index)
