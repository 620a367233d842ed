"""Property-based tests over the core invariants (hypothesis)."""

from hypothesis import assume, given, settings, strategies as st

from repro.arch import custom_device
from repro.debug import ERROR_KINDS, apply_correction, inject_error
from repro.errors import DebugFlowError
from repro.geometry import Rect
from repro.generators.random_logic import (
    random_combinational_netlist,
    random_sequential_netlist,
)
from repro.netlist import check_netlist, simulate_words
from repro.netlist.blif import read_blif, write_blif
from repro.netlist.simulate import SequentialSimulator
from repro.pnr import EFFORT_PRESETS, PlaceConstraints
from repro.pnr.placer import _AnnealState, place_design
from repro.rng import make_rng
from repro.synth import map_to_luts, pack_netlist
from tests.conftest import fresh_packed_design


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_netlists_always_validate(seed):
    n = random_sequential_netlist(
        f"p{seed}", n_inputs=6, n_outputs=4, n_ffs=5, n_gates=30, seed=seed
    )
    assert check_netlist(n) == []


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_blif_roundtrip_property(seed):
    """write_blif . read_blif preserves combinational behaviour."""
    n = random_combinational_netlist(
        f"b{seed}", n_inputs=6, n_outputs=4, n_gates=25, seed=seed
    )
    parsed = read_blif(write_blif(n))
    rng = make_rng(seed, "stim")
    ins = {f"in{i}": rng.getrandbits(32) for i in range(6)}
    assert simulate_words(n, ins, 32) == simulate_words(parsed, ins, 32)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_mapping_then_packing_preserves_instances(seed):
    n = random_sequential_netlist(
        f"m{seed}", n_inputs=6, n_outputs=4, n_ffs=4, n_gates=25, seed=seed
    )
    mapped = map_to_luts(n)
    packed = pack_netlist(mapped)
    placed_instances = {
        name
        for block in packed.blocks
        for name in block.instances
    }
    expected = {i.name for i in mapped.instances()}
    assert placed_instances == expected


@given(
    kind=st.sampled_from(ERROR_KINDS),
    seed=st.integers(0, 1000),
)
@settings(max_examples=15, deadline=None)
def test_inject_then_correct_is_identity(kind, seed):
    """Correction is the exact inverse of injection, functionally."""
    golden = map_to_luts(
        random_sequential_netlist(
            f"e{seed}", n_inputs=5, n_outputs=4, n_ffs=3, n_gates=24,
            seed=seed,
        )
    )
    dut = golden.copy()
    try:
        record = inject_error(dut, kind, seed=seed)
    except DebugFlowError:
        # e.g. a netlist with only symmetric LUTs cannot host input_swap
        assume(False)
    apply_correction(dut, record)
    check_netlist(dut)
    rng = make_rng(seed, "verify")
    sim_g = SequentialSimulator(golden)
    sim_d = SequentialSimulator(dut)
    for _ in range(3):
        ins = {f"in{i}": rng.getrandbits(32) for i in range(5)}
        assert sim_d.step(ins, 32) == sim_g.step(ins, 32)


@given(seed=st.integers(0, 500), n_tiles=st.integers(2, 8))
@settings(max_examples=8, deadline=None)
def test_tile_partition_conserves_blocks(seed, n_tiles):
    from repro.arch import pick_device
    from repro.pnr import EFFORT_PRESETS, full_place_and_route
    from repro.tiling import TilingOptions, assign_blocks_to_tiles, plan_tile_grid

    mapped = map_to_luts(
        random_sequential_netlist(
            f"t{seed}", n_inputs=5, n_outputs=4, n_ffs=4, n_gates=30,
            seed=seed,
        )
    )
    packed = pack_netlist(mapped)
    device = pick_device(
        packed.n_clbs, area_overhead=0.8, min_io=len(packed.io_blocks())
    )
    layout = full_place_and_route(
        packed, device, seed=seed, preset=EFFORT_PRESETS["fast"],
        strict_routing=False,
    )
    rects = plan_tile_grid(
        packed.n_clbs, device,
        TilingOptions(n_tiles=n_tiles, area_overhead=0.3),
    )
    tiles = assign_blocks_to_tiles(packed, layout.placement, rects)
    assigned = sorted(b for t in tiles for b in t.blocks)
    assert assigned == sorted(b.index for b in packed.clb_blocks())
    assert all(t.used <= t.capacity for t in tiles)


@given(
    seed=st.integers(0, 10_000),
    use_regions=st.booleans(),
    use_locked=st.booleans(),
    use_free_sites=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_anneal_state_tracks_placement(seed, use_regions, use_locked,
                                       use_free_sites):
    """Random moves at random temperatures keep every cache exact.

    After each proposal the cached per-net costs (and large-net boxes)
    equal a from-scratch recompute, and the arrays mirror
    ``Placement.pos``/``clb_at``, under any mix of constraints.
    """
    packed = fresh_packed_design(width=8)
    device = custom_device(7, 7)
    placement = place_design(packed, device, seed=seed,
                             preset=EFFORT_PRESETS["fast"])
    rng = make_rng(seed, "anneal-property")
    clbs = sorted(b.index for b in packed.clb_blocks())
    locked = set(rng.sample(clbs, 3)) if use_locked else set()
    regions = {}
    if use_regions:
        for b in rng.sample(clbs, len(clbs) // 2):
            x, y = placement.pos[b]
            regions[b] = Rect(max(0, x - 2), max(0, y - 2),
                              min(device.nx - 1, x + 2),
                              min(device.ny - 1, y + 2))
    free_sites = None
    if use_free_sites:
        free_sites = {
            (x, y) for x in range(device.nx) for y in range(device.ny)
            if rng.random() < 0.7
        }
    constraints = PlaceConstraints(regions=regions, locked=locked,
                                   free_sites=free_sites)
    movable = set(clbs) - locked
    frozen = {b: placement.pos[b] for b in locked}
    state = _AnnealState(packed, device, placement, constraints, movable,
                         make_rng(seed, "anneal-test"))
    ny = device.ny

    total = state.total()
    for _ in range(80):
        temperature = rng.choice([0.0, 0.5, 2.0, 20.0, float("inf")])
        rlim = float(rng.randint(1, max(device.nx, device.ny)))
        _, total = state.sweep(1, temperature, rlim, total)

        for k in range(len(state.terms)):
            entry = state.scan(k)
            span = (entry[2] - entry[0]) + (entry[6] - entry[4])
            assert state.cost[k] == span * state.q[k]
            if state.box[k] is not None:
                assert state.box[k] == entry
        for b, (x, y) in placement.pos.items():
            assert (state.px[b], state.py[b]) == (x, y)
        assert sum(b >= 0 for b in state.occ) == len(placement.clb_at)
        for (x, y), b in placement.clb_at.items():
            assert state.occ[x * ny + y] == b
        assert abs(total - state.total()) < 1e-6

    for b, site in frozen.items():
        assert placement.pos[b] == site
    for b, rect in regions.items():
        if b in movable:
            assert rect.contains(*placement.pos[b])
    placement.check_complete()
