"""Simulated-annealing placer (VPR-style) with tiling constraints.

The annealer is the workhorse behind every experiment: initial placement
of whole designs, slack-aware tiled placement, tile-confined re-placement
and the incremental baseline's window re-placement all call
:func:`place_design` with different constraint sets.

Key features:

* classic adaptive schedule — starting temperature from sampled move
  statistics, acceptance-driven cooling, shrinking range limiter;
* **region constraints** per block (tile rectangles) and **locked**
  blocks (the paper's "all resources are locked" default);
* wirelength cost = half-perimeter per net scaled by the usual
  fanout correction factor;
* every proposed move is charged to an :class:`EffortMeter`, which is
  how Figure 5's effort comparison is measured.

The move loop runs on one flat-array state per call
(:class:`_AnnealState`): block coordinates, site occupancy, movable and
free-site masks, hoisted region bounds and per-net terminal lists,
crossing factors and cached costs.  A proposal is scored on the arrays
and touches the :class:`Placement` only when accepted.  The results are
bit-identical with the dict-based annealer it replaced: the same RNG
draws in the same order, per-net deltas summed in the same order,
integer spans times the same crossing factors (so a net's cost does not
depend on whether its span was rescanned or shifted), the same effort
counts, and the same ``clb_at`` insertion order — a rejected
displacement still moves its site key to the end, which bitstream
assembly observes.
"""

from __future__ import annotations

import math

from repro.arch.device import Device
from repro.errors import PlacementError
from repro.pnr.effort import EffortMeter, EffortPreset, EFFORT_PRESETS
from repro.pnr.placement import PlaceConstraints, Placement
from repro.rng import make_rng
from repro.synth.pack import PackedDesign

#: VPR crossing-count correction for multi-terminal net HPWL.
_CROSSING = [
    1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
    1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114,
    1.8519, 1.8924,
]


def q_factor(n_terminals: int) -> float:
    if n_terminals < len(_CROSSING):
        return _CROSSING[n_terminals]
    return 1.8924 + 0.02616 * (n_terminals - len(_CROSSING) + 1)


def place_design(
    packed: PackedDesign,
    device: Device,
    seed: int = 1,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
    initial: Placement | None = None,
    constraints: PlaceConstraints | None = None,
    movable: set[int] | None = None,
) -> Placement:
    """Place ``packed`` on ``device`` and return the placement.

    ``movable`` selects which CLB blocks the annealer may touch (default:
    every CLB not locked by ``constraints``); all other blocks must
    already be placed by ``initial``.  IOB blocks missing from
    ``initial`` are spread deterministically around the ring.
    """
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    constraints = constraints or PlaceConstraints()
    rng = make_rng(seed, "place", packed.netlist.name)

    placement = initial.copy() if initial is not None else Placement(device, packed)

    clb_indices = {b.index for b in packed.clb_blocks()}
    if movable is None:
        movable_set = clb_indices - constraints.locked
    else:
        movable_set = set(movable) & clb_indices - constraints.locked

    _place_iobs(packed, device, placement)
    _seed_movable(packed, device, placement, constraints, movable_set, rng)
    _check_unmovable_placed(packed, placement, movable_set)

    if movable_set:
        _anneal(
            packed, device, placement, constraints, movable_set, rng, preset, meter
        )
    placement.check_complete()
    return placement


# ----------------------------------------------------------------------
# initial placement
# ----------------------------------------------------------------------

def _place_iobs(packed: PackedDesign, device: Device, placement: Placement) -> None:
    unplaced = [
        b for b in packed.io_blocks() if not placement.is_placed(b.index)
    ]
    if not unplaced:
        return
    slots = device.io_slots()
    fill: dict[tuple[int, int], int] = {
        slot: len(pads) for slot, pads in placement.io_at.items()
    }
    n = len(unplaced)
    if n > device.spec.io_capacity:
        raise PlacementError(
            f"{n} IOBs exceed device capacity {device.spec.io_capacity}"
        )
    for i, block in enumerate(unplaced):
        start = (i * len(slots)) // max(1, n)
        for probe in range(len(slots)):
            slot = slots[(start + probe) % len(slots)]
            if fill.get(slot, 0) < device.io_per_slot:
                placement.place_io(block.index, slot)
                fill[slot] = fill.get(slot, 0) + 1
                break
        else:
            raise PlacementError("ran out of IOB slots")


def _seed_movable(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    constraints: PlaceConstraints,
    movable: set[int],
    rng,
) -> None:
    """Random initial site for movable blocks lacking one."""
    todo = sorted(b for b in movable if not placement.is_placed(b))
    if not todo:
        return
    by_region: dict[object, list[int]] = {}
    for b in todo:
        key = constraints.region_of(b, device)
        by_region.setdefault(key, []).append(b)
    for region, blocks in by_region.items():
        sites = [
            s
            for s in placement.free_clb_sites_in(region)
            if constraints.free_sites is None or s in constraints.free_sites
        ]
        if len(sites) < len(blocks):
            raise PlacementError(
                f"region {region} has {len(sites)} free sites for "
                f"{len(blocks)} blocks"
            )
        rng.shuffle(sites)
        for block, site in zip(blocks, sites):
            placement.place_clb(block, site)


def _check_unmovable_placed(
    packed: PackedDesign, placement: Placement, movable: set[int]
) -> None:
    for block in packed.clb_blocks():
        if block.index not in movable and not placement.is_placed(block.index):
            raise PlacementError(
                f"immovable block {block.name} has no initial site"
            )


# ----------------------------------------------------------------------
# annealing
# ----------------------------------------------------------------------

#: nets with at most this many terminals recompute their span outright
#: on every move; larger nets keep an incrementally shifted bounding box
_SCAN_MAX = 3


class _AnnealState:
    """Flat-array annealing state, built once per :func:`place_design`.

    Blocks are addressed by their ``PackedDesign`` index, CLB sites by
    ``x * ny + y`` and active nets (those with a movable terminal) by
    their position in :attr:`active_nets`:

    * ``px``/``py`` hold every block's coordinates, ``occ`` the block on
      each CLB site (-1 when empty), ``movable`` a 0/1 mask over blocks
      and ``free_sites`` one over sites (None without that constraint);
    * ``bounds`` holds each movable block's region as ``(x0, x1, y0,
      y1)``, hoisted out of the move loop;
    * ``terms``/``q``/``cost`` hold each net's terminals, crossing factor
      and cached cost, and ``nets_of``/``net_sets`` each movable block's
      nets.  Nets of up to ``_SCAN_MAX`` terminals recompute their span
      outright; larger nets cache their bounding box in ``box`` as
      ``(xmin, n_xmin, xmax, n_xmax, ymin, n_ymin, ymax, n_ymax)`` —
      extremes plus the number of terminals on each — which
      :func:`_bbox_shift` updates in O(1), rescanning only when a sole
      extreme terminal moves away.

    A move is evaluated on the arrays; the :class:`Placement` dicts are
    written only when it is accepted, except that a rejected
    displacement re-inserts the block's site key at the end of
    ``clb_at``, as moving there and back always did.
    """

    def __init__(
        self,
        packed: PackedDesign,
        device: Device,
        placement: Placement,
        constraints: PlaceConstraints,
        movable: set[int],
        rng,
    ) -> None:
        self.placement = placement
        self.rng = rng
        self.ny = ny = device.ny
        self.rlim_max = float(max(device.nx, device.ny))
        self.n_sites = device.nx * ny
        n_blocks = packed.n_blocks
        self.movable_list = sorted(movable)
        self.movable = bytearray(n_blocks)
        for b in movable:
            self.movable[b] = 1

        self.free_sites: bytearray | None = None
        if constraints.free_sites is not None:
            self.free_sites = bytearray(self.n_sites)
            for x, y in constraints.free_sites:
                if device.is_clb_site(x, y):
                    self.free_sites[x * ny + y] = 1
        # a site draw needs a non-empty range around the block, so every
        # region must lie on the grid and hold its block's start site
        grid = device.clb_region
        self.bounds: list[tuple[int, int, int, int] | None] = [None] * n_blocks
        for b in movable:
            r = constraints.regions.get(b, grid)
            if not grid.contains_rect(r) or not r.contains(*placement.pos[b]):
                raise PlacementError(
                    f"block {b} at {placement.pos[b]} cannot anneal in {r}"
                )
            self.bounds[b] = (r.x0, r.x1, r.y0, r.y1)

        self.active_nets: list[int] = []
        self.terms: list[list[int]] = []
        self.q: list[float] = []
        self.nets_of: list[list[int]] = [[] for _ in range(n_blocks)]
        for net in packed.nets.values():
            blocks = [net.driver, *net.sinks]
            if not any(self.movable[b] for b in blocks):
                continue
            k = len(self.terms)
            self.active_nets.append(net.index)
            self.terms.append(blocks)
            self.q.append(q_factor(len(blocks)))
            for b in blocks:
                if self.movable[b]:
                    self.nets_of[b].append(k)
        self.net_sets = [frozenset(nets) for nets in self.nets_of]

        self.px = [0] * n_blocks
        self.py = [0] * n_blocks
        self.cost = [0.0] * len(self.terms)
        self.box: list[tuple | None] = [None] * len(self.terms)
        self.load()

    def load(self) -> None:
        """Read every position from the placement; recompute every net."""
        px, py, ny = self.px, self.py, self.ny
        for b, (x, y) in self.placement.pos.items():
            px[b] = x
            py[b] = y
        self.occ = occ = [-1] * self.n_sites
        for (x, y), b in self.placement.clb_at.items():
            occ[x * ny + y] = b
        for k, blocks in enumerate(self.terms):
            entry = self.scan(k)
            self.box[k] = entry if len(blocks) > _SCAN_MAX else None
            span = (entry[2] - entry[0]) + (entry[6] - entry[4])
            self.cost[k] = span * self.q[k]

    def scan(self, k: int) -> tuple:
        """Net ``k``'s bounding-box entry from a full terminal scan."""
        xs = [self.px[b] for b in self.terms[k]]
        ys = [self.py[b] for b in self.terms[k]]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        return (
            xmin, xs.count(xmin), xmax, xs.count(xmax),
            ymin, ys.count(ymin), ymax, ys.count(ymax),
        )

    def total(self) -> float:
        return sum(self.cost)

    def initial_temperature(self, meter: EffortMeter) -> float:
        """VPR rule: T0 = 20 x stddev of cost over a random-move sample.

        Sampling runs real moves at infinite temperature, so every
        proposal is accepted and the placement drifts.  The pre-sample
        placement is restored afterwards (remove every movable block,
        then re-place each in block order, which fixes the dict order
        the result carries) and the arrays reloaded — annealing must
        start from the caller's placement, not a random walk off it.
        """
        placement = self.placement
        saved = {b: placement.pos[b] for b in self.movable_list}
        deltas: list[float] = []
        samples = min(60, 5 * len(self.movable_list))
        meter.place_moves += samples
        self.sweep(samples, float("inf"), self.rlim_max, 0.0, deltas)

        for b in self.movable_list:
            placement.remove(b)
        for b, site in saved.items():
            placement.place_clb(b, site)
        self.load()

        if len(deltas) < 2:
            return 1.0
        mean = sum(deltas) / len(deltas)
        var = sum((d - mean) ** 2 for d in deltas) / (len(deltas) - 1)
        return max(1e-6, 20.0 * math.sqrt(var))

    def sweep(
        self,
        moves: int,
        temperature: float,
        rlim: float,
        total: float,
        deltas: list[float] | None = None,
    ) -> tuple[int, float]:
        """Propose ``moves`` displace/swap moves at ``temperature``.

        Each move draws the block (``randrange(n)``), the site
        (``randint`` twice) and, only when the move would raise the cost
        at a positive temperature, ``random()`` for Metropolis.  The
        integer draws call ``Random._randbelow`` directly, which is all
        ``randrange(n)`` and ``randint(a, b)`` do (``_randbelow(n)`` and
        ``a + _randbelow(b - a + 1)``): the same stream without two
        wrapper frames per draw.  Per-net cost deltas are
        summed in the block's net order, then the occupant's remaining
        nets.  Returns ``(accepted, total)`` with every accepted delta
        added to ``total`` in order (and appended to ``deltas``).
        """
        rng = self.rng
        below, random = rng._randbelow, rng.random
        exp = math.exp
        shift, scan = _bbox_shift, self.scan
        px, py, occ, ny = self.px, self.py, self.occ, self.ny
        movable, free, bounds = self.movable, self.free_sites, self.bounds
        terms, q, cost, box = self.terms, self.q, self.cost, self.box
        nets_of, net_sets = self.nets_of, self.net_sets
        pos, clb_at = self.placement.pos, self.placement.clb_at
        movable_list = self.movable_list
        n_movable = len(movable_list)
        span = max(1, int(rlim))
        accepted = 0
        for _ in range(moves):
            block = movable_list[below(n_movable)]
            bx = px[block]
            by = py[block]
            x0, x1, y0, y1 = bounds[block]
            lo = max(x0, bx - span)
            sx = lo + below(min(x1, bx + span) - lo + 1)
            lo = max(y0, by - span)
            sy = lo + below(min(y1, by + span) - lo + 1)
            if sx == bx and sy == by:
                continue
            site_id = sx * ny + sy
            if free is not None and not free[site_id]:
                continue
            other = occ[site_id]
            block_nets = net_sets[block]
            if other >= 0:
                if not movable[other]:
                    continue
                if free is not None and not free[bx * ny + by]:
                    continue
                ox0, ox1, oy0, oy1 = bounds[other]
                if not (ox0 <= bx <= ox1 and oy0 <= by <= oy1):
                    continue
                other_nets = net_sets[other]
                affected = nets_of[block] + [
                    k for k in nets_of[other] if k not in block_nets
                ]
                px[other] = bx
                py[other] = by
            else:
                other_nets = None
                affected = nets_of[block]
            px[block] = sx
            py[block] = sy

            delta = 0.0
            new_costs = []
            new_boxes = []
            for k in affected:
                entry = box[k]
                if entry is None:
                    t = terms[k]
                    if len(t) == 2:
                        a, b = t
                        s = abs(px[a] - px[b]) + abs(py[a] - py[b])
                    else:
                        xs = [px[b] for b in t]
                        ys = [py[b] for b in t]
                        s = max(xs) - min(xs) + max(ys) - min(ys)
                else:
                    if k in block_nets:
                        entry = shift(entry, bx, by, sx, sy)
                    if (
                        entry is not None
                        and other_nets is not None
                        and k in other_nets
                    ):
                        entry = shift(entry, sx, sy, bx, by)
                    if entry is None:
                        entry = scan(k)
                    new_boxes.append((k, entry))
                    s = (entry[2] - entry[0]) + (entry[6] - entry[4])
                c = s * q[k]
                new_costs.append(c)
                delta += c - cost[k]

            if delta <= 0 or (
                temperature > 0 and random() < exp(-delta / temperature)
            ):
                for k, c in zip(affected, new_costs):
                    cost[k] = c
                for k, entry in new_boxes:
                    box[k] = entry
                occ[bx * ny + by] = other
                occ[site_id] = block
                old_site = pos[block]
                if other >= 0:
                    site = pos[other]
                    clb_at[old_site] = other
                    clb_at[site] = block
                    pos[other] = old_site
                else:
                    site = (sx, sy)
                    del clb_at[old_site]
                    clb_at[site] = block
                pos[block] = site
                total += delta
                accepted += 1
                if deltas is not None:
                    deltas.append(delta)
            else:
                px[block] = bx
                py[block] = by
                if other >= 0:
                    px[other] = sx
                    py[other] = sy
                else:
                    old_site = pos[block]
                    del clb_at[old_site]
                    clb_at[old_site] = block
        return accepted, total


def _bbox_shift(entry: tuple, ox: int, oy: int, nx: int, ny: int):
    """Bounding box after moving one terminal ``(ox, oy)`` → ``(nx, ny)``.

    Returns None when a drained extreme forces a terminal rescan.
    """
    xmin, nxmin, xmax, nxmax, ymin, nymin, ymax, nymax = entry
    if ox != nx:
        if ox == xmin:
            nxmin -= 1
        if ox == xmax:
            nxmax -= 1
        if nxmin == 0 or nxmax == 0:
            return None
        if nx < xmin:
            xmin, nxmin = nx, 1
        elif nx == xmin:
            nxmin += 1
        if nx > xmax:
            xmax, nxmax = nx, 1
        elif nx == xmax:
            nxmax += 1
    if oy != ny:
        if oy == ymin:
            nymin -= 1
        if oy == ymax:
            nymax -= 1
        if nymin == 0 or nymax == 0:
            return None
        if ny < ymin:
            ymin, nymin = ny, 1
        elif ny == ymin:
            nymin += 1
        if ny > ymax:
            ymax, nymax = ny, 1
        elif ny == ymax:
            nymax += 1
    return (xmin, nxmin, xmax, nxmax, ymin, nymin, ymax, nymax)


def _anneal(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    constraints: PlaceConstraints,
    movable: set[int],
    rng,
    preset: EffortPreset,
    meter: EffortMeter,
) -> None:
    state = _AnnealState(packed, device, placement, constraints, movable, rng)
    if not state.active_nets:
        return
    temperature = state.initial_temperature(meter)
    total = state.total()

    n_movable = len(state.movable_list)
    rlim = state.rlim_max
    moves_per_temp = max(4, int(preset.inner_num * n_movable ** (4 / 3)))
    # small problems converge in few temperatures; cap the schedule so a
    # six-CLB tile job really is cheap (the effect Figure 5 measures)
    max_temps = min(400, 40 + 12 * int(n_movable ** 0.5))

    for _ in range(max_temps):
        meter.place_moves += moves_per_temp
        accepted, total = state.sweep(moves_per_temp, temperature, rlim, total)
        rate = accepted / moves_per_temp
        temperature *= _cooling_factor(rate)
        rlim = min(state.rlim_max, max(1.0, rlim * (1.0 - 0.44 + rate)))
        if temperature < preset.exit_ratio * max(total, 1.0) / len(
            state.active_nets
        ):
            break

    # zero-temperature quench: greedy pass accepting only improvements
    meter.place_moves += moves_per_temp
    state.sweep(moves_per_temp, 0.0, max(1.0, rlim), total)


def _cooling_factor(acceptance_rate: float) -> float:
    if acceptance_rate > 0.96:
        return 0.5
    if acceptance_rate > 0.8:
        return 0.9
    if acceptance_rate > 0.15:
        return 0.95
    return 0.8
