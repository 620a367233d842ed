"""Negotiated-congestion maze router with locking and region confinement.

The routing fabric is the cell grid (CLB array plus IOB ring); every pair
of adjacent routable cells is a channel segment with
``device.channel_width`` tracks.  A net's route is a Steiner tree of grid
cells grown sink-by-sink with A*.

PathFinder-style negotiation: nets are routed with a congestion cost
``1 + pres_fac * overuse + hist``; after each iteration nets crossing
over-capacity edges are ripped up and re-routed with a larger
``pres_fac`` until the solution is feasible.

Performance substrate (PR 2): the grid is lowered once per device
geometry into a :class:`_Fabric` — flat cell ids, per-cell neighbor/edge
tables and cached region masks — and :class:`RoutingState` keeps dense
edge-indexed occupancy/history arrays plus an *incrementally maintained*
over-capacity set, so congestion lookups inside A* are two list reads
and convergence checks never scan the edge universe.

Tiling hooks:

* **locked routes** — existing routes (from untouched tiles) stay in the
  usage map and are never ripped up, exactly like locked layout;
* **region confinement** — expansion can be limited to a rectangle, so a
  tile-confined re-route physically cannot disturb its surroundings;
* every node expansion is charged to the :class:`EffortMeter`.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field

from repro.arch.device import Device
from repro.errors import RoutingError
from repro.geometry import Rect, manhattan
from repro.pnr.effort import EffortMeter, EffortPreset, EFFORT_PRESETS
from repro.pnr.placement import Placement
from repro.synth.pack import PackedDesign

Edge = tuple[tuple[int, int], tuple[int, int]]

_INF = float("inf")


class _AStarScratch(threading.local):
    """Generation-stamped A* scratch arrays, one set per thread.

    Stamping avoids per-call dict hashing.  The fabric is shared
    process-wide, so the scratch must not be: two threads routing on
    the same geometry would otherwise overwrite each other's costs and
    parent pointers mid-search.
    """

    def __init__(self, n_cells: int) -> None:
        self.best = [0.0] * n_cells
        self.parent = [0] * n_cells
        self.stamp = [0] * n_cells
        self.generation = 0


class _Fabric:
    """Precomputed routing-graph tables for one device geometry.

    Cells (including the IOB ring) get flat ids
    ``(x + 1) * (ny + 2) + (y + 1)``; each undirected channel segment
    gets the id ``2 * cell_id(lower_endpoint) + axis`` (axis 0 = east,
    1 = north), so dense arrays can carry per-edge state.  Neighbor
    tables preserve the legacy expansion order (E, W, N, S) so routed
    trees are bit-identical with the pre-fabric router.
    """

    def __init__(self, device: Device) -> None:
        self.nx = device.nx
        self.ny = device.ny
        self.h = device.ny + 2
        self.w = device.nx + 2
        n = self.w * self.h
        self.n_cells = n
        self.n_edges = 2 * n
        h = self.h
        self.xs = [0] * n
        self.ys = [0] * n
        self.xy: list[tuple[int, int]] = [(0, 0)] * n
        nbr: list[tuple[tuple[int, int], ...]] = [()] * n
        for x in range(-1, device.nx + 1):
            for y in range(-1, device.ny + 1):
                cid = (x + 1) * h + (y + 1)
                self.xs[cid] = x
                self.ys[cid] = y
                self.xy[cid] = (x, y)
        for x in range(-1, device.nx + 1):
            for y in range(-1, device.ny + 1):
                if not device.is_routable(x, y):
                    continue
                cid = (x + 1) * h + (y + 1)
                flat: list[tuple[int, int]] = []
                # legacy neighbor order: E, W, N, S
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    cx, cy = x + dx, y + dy
                    if not device.is_routable(cx, cy):
                        continue
                    ncid = (cx + 1) * h + (cy + 1)
                    if dx == 1:
                        eid = 2 * cid
                    elif dx == -1:
                        eid = 2 * ncid
                    elif dy == 1:
                        eid = 2 * cid + 1
                    else:
                        eid = 2 * ncid + 1
                    flat.append((ncid, eid))
                nbr[cid] = tuple(flat)
        self.nbr = nbr
        self._region_masks: dict[Rect, bytearray] = {}
        self.scratch = _AStarScratch(n)

    def cell_id(self, cell: tuple[int, int]) -> int:
        return (cell[0] + 1) * self.h + (cell[1] + 1)

    def edge_id(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        if b < a:
            a, b = b, a
        cid = (a[0] + 1) * self.h + (a[1] + 1)
        return 2 * cid + (1 if b[1] != a[1] else 0)

    def edge_tuple(self, eid: int) -> Edge:
        x, y = self.xy[eid >> 1]
        if eid & 1:
            return ((x, y), (x, y + 1))
        return ((x, y), (x + 1, y))

    def region_mask(self, region: Rect) -> bytearray:
        """Cached 0/1 cell-inclusion mask for a confinement rectangle."""
        mask = self._region_masks.get(region)
        if mask is None:
            mask = bytearray(self.n_cells)
            h = self.h
            for x in range(region.x0, region.x1 + 1):
                base = (x + 1) * h + 1
                for y in range(region.y0, region.y1 + 1):
                    mask[base + y] = 1
            self._region_masks[region] = mask
        return mask


_FABRICS: dict[tuple[int, int], _Fabric] = {}


def fabric_of(device: Device) -> _Fabric:
    """The shared fabric tables for a device geometry (built once)."""
    fab = _FABRICS.get((device.nx, device.ny))
    if fab is None:
        fab = _Fabric(device)
        _FABRICS[(device.nx, device.ny)] = fab
    return fab


@dataclass
class RouteTree:
    """One net's route: tree cells, edges, and per-sink path lengths.

    ``eids`` optionally carries the fabric edge ids of ``edges`` in a
    matching (but unordered) multiset — replayed configurations
    precompute them so occupancy bookkeeping skips the id arithmetic.
    It must be dropped (set to None) whenever ``edges`` changes.
    """

    net_index: int
    cells: set[tuple[int, int]] = field(default_factory=set)
    edges: set[Edge] = field(default_factory=set)
    sink_hops: dict[int, int] = field(default_factory=dict)
    eids: tuple[int, ...] | None = None

    @property
    def wirelength(self) -> int:
        return len(self.edges)

    def copy(self) -> "RouteTree":
        # the copy's sets are mutable, so the eids shortcut is dropped —
        # a later in-place edit of copy.edges must not leave a stale
        # id multiset behind
        return RouteTree(
            self.net_index, set(self.cells), set(self.edges),
            dict(self.sink_hops),
        )


class RoutingState:
    """Shared channel-usage bookkeeping across all routed nets.

    Occupancy and history live in dense edge-indexed arrays; the set of
    over-capacity edges is maintained incrementally by :meth:`add` /
    :meth:`remove`, so feasibility checks are O(1) and
    :meth:`overused_edges` never scans the edge universe.  The mapping
    views :attr:`usage` / :attr:`history` are materialized on demand for
    inspection and tests — hot paths read the arrays directly.
    """

    def __init__(self, device: Device) -> None:
        self.device = device
        self.fabric = fabric_of(device)
        self.capacity = device.channel_width
        self._usage = [0] * self.fabric.n_edges
        self._history = [0.0] * self.fabric.n_edges
        self._used: set[int] = set()
        self._hist_ids: set[int] = set()
        self.overused_ids: set[int] = set()

    @property
    def usage(self) -> dict[Edge, int]:
        """Edge-tuple view of current occupancy (built on demand)."""
        tup = self.fabric.edge_tuple
        return {tup(eid): self._usage[eid] for eid in self._used}

    @property
    def history(self) -> dict[Edge, float]:
        """Edge-tuple view of accumulated history cost (on demand)."""
        tup = self.fabric.edge_tuple
        return {tup(eid): self._history[eid] for eid in self._hist_ids}

    def _edge_ids(self, route: RouteTree):
        eids = route.eids
        if eids is not None:
            return eids
        h = self.fabric.h
        return [
            2 * ((a[0] + 1) * h + a[1] + 1) + (1 if b[1] != a[1] else 0)
            if a <= b
            else 2 * ((b[0] + 1) * h + b[1] + 1) + (1 if a[1] != b[1] else 0)
            for a, b in route.edges
        ]

    def add(self, route: RouteTree) -> None:
        usage = self._usage
        cap = self.capacity
        used_add = self._used.add
        over_add = self.overused_ids.add
        for eid in self._edge_ids(route):
            u = usage[eid] + 1
            usage[eid] = u
            if u == 1:
                used_add(eid)
            if u == cap + 1:  # independent: both fire when cap == 0
                over_add(eid)

    def remove(self, route: RouteTree) -> None:
        usage = self._usage
        cap = self.capacity
        used_discard = self._used.discard
        over_discard = self.overused_ids.discard
        for eid in self._edge_ids(route):
            u = usage[eid] - 1
            if u < 0:
                u = 0
            usage[eid] = u
            if u == 0:
                used_discard(eid)
            if u == cap:  # independent: both fire when cap == 0
                over_discard(eid)

    def overused_edges(self) -> list[Edge]:
        tup = self.fabric.edge_tuple
        return [tup(eid) for eid in sorted(self.overused_ids)]

    def congestion_cost(self, edge: Edge, pres_fac: float) -> float:
        eid = self.fabric.edge_id(*edge)
        over = self._usage[eid] + 1 - self.capacity
        cost = 1.0 + self._history[eid]
        if over > 0:
            cost += pres_fac * over
        return cost

    def bump_history(self, hist_fac: float = 0.4) -> None:
        history = self._history
        for eid in self.overused_ids:
            history[eid] += hist_fac
            self._hist_ids.add(eid)

    def copy(self) -> "RoutingState":
        clone = RoutingState.__new__(RoutingState)
        clone.device = self.device
        clone.fabric = self.fabric
        clone.capacity = self.capacity
        clone._usage = list(self._usage)
        clone._history = list(self._history)
        clone._used = set(self._used)
        clone._hist_ids = set(self._hist_ids)
        clone.overused_ids = set(self.overused_ids)
        return clone


def route_nets(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    net_indices: list[int] | None = None,
    state: RoutingState | None = None,
    region: Rect | None = None,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
    strict: bool = True,
) -> dict[int, RouteTree]:
    """Route the given nets (default: all); returns net index → tree.

    ``state`` carries usage from locked routes; routes created here are
    added to it.  With ``region`` every new route is confined to the
    rectangle (terminals must lie inside).  With ``strict`` a residual
    over-capacity edge involving one of *our* nets raises
    :class:`RoutingError`; pre-existing locked congestion is the
    caller's responsibility.
    """
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    state = state if state is not None else RoutingState(device)
    if net_indices is None:
        net_indices = [n.index for n in packed.nets.values()]

    routes: dict[int, RouteTree] = {}
    pres_fac = 0.5
    todo = list(net_indices)
    for iteration in range(preset.router_iterations):
        for net_idx in todo:
            old = routes.pop(net_idx, None)
            if old is not None:
                state.remove(old)
            tree = _route_one(
                packed, device, placement, net_idx, state, region, pres_fac, meter
            )
            routes[net_idx] = tree
            state.add(tree)

        if not state.overused_ids:
            break
        state.bump_history()
        pres_fac *= 2.0
        over = set(state.overused_edges())
        todo = [
            idx for idx, tree in routes.items() if tree.edges & over
        ]
        if not todo:
            break

    if strict and state.overused_ids:
        # Single residual check: fail only when one of *our* nets sits
        # on an over-capacity edge (locked congestion is pre-existing).
        over = set(state.overused_edges())
        involved = {
            e for tree in routes.values() for e in tree.edges & over
        }
        if involved:
            raise RoutingError(
                f"{len(involved)} channel segments over capacity after "
                f"{preset.router_iterations} iterations"
            )
    return routes


def grow_steiner_tree(
    device: Device,
    seed_cells: set[tuple[int, int]],
    targets: list[tuple[int, int]],
    state: RoutingState,
    region: Rect | None = None,
    pres_fac: float = 2.0,
    meter: EffortMeter | None = None,
    eids: list[int] | None = None,
) -> tuple[set[tuple[int, int]], set[Edge], dict[tuple[int, int], int]]:
    """Grow a tree from ``seed_cells`` reaching every target cell.

    This is the primitive behind interface-preserving tile reroutes: the
    seeds are the locked boundary-crossing cells (or the driver site) and
    the targets are the sinks inside the tile plus the remaining
    crossings.  Returns (cells, edges, hops per target); when ``eids``
    is given, the fabric edge id of every new edge is appended to it.
    """
    meter = meter if meter is not None else EffortMeter()
    cells = set(seed_cells)
    edges: set[Edge] = set()
    hops: dict[tuple[int, int], int] = {}
    for target in sorted(
        targets, key=lambda t: min((manhattan(t, s) for s in cells), default=0)
    ):
        if target in cells:
            hops[target] = 0
            continue
        path = _astar(cells, target, state, region, pres_fac, meter)
        if path is None:
            raise RoutingError(
                f"no path to {target}"
                + (f" within region {region}" if region else "")
            )
        hops[target] = len(path) - 1
        _extend_tree(state.fabric, path, cells, edges, eids)
    return cells, edges, hops


def _route_one(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    net_idx: int,
    state: RoutingState,
    region: Rect | None,
    pres_fac: float,
    meter: EffortMeter,
) -> RouteTree:
    net = packed.nets[net_idx]
    source = placement.site_of(net.driver)
    sinks = [(placement.site_of(s), s) for s in net.sinks]
    tree = RouteTree(net_idx)
    tree.cells.add(source)
    eids: list[int] = []

    for target, sink_block in sorted(
        sinks, key=lambda item: (manhattan(source, item[0]), item[1])
    ):
        if target in tree.cells:
            tree.sink_hops[sink_block] = 0
            continue
        path = _astar(
            tree.cells, target, state, region, pres_fac, meter
        )
        if path is None:
            raise RoutingError(
                f"net {net.name}: no path from tree to {target}"
                + (f" within region {region}" if region else "")
            )
        tree.sink_hops[sink_block] = len(path) - 1
        _extend_tree(state.fabric, path, tree.cells, tree.edges, eids)
    tree.eids = tuple(eids)
    return tree


def _extend_tree(
    fab: _Fabric,
    path: list[int],
    cells: set[tuple[int, int]],
    edges: set[Edge],
    eids: list[int] | None,
) -> None:
    """Add an A* cell-id path's cells and edges (and edge ids) to a tree.

    Every cell after the first is new to the tree — the search starts
    from all tree cells at cost zero — so every edge is new as well and
    ``eids`` stays in one-to-one correspondence with ``edges``.
    """
    xy = fab.xy
    prev = path[0]
    a = xy[prev]
    for cid in path[1:]:
        b = xy[cid]
        edges.add((a, b) if a <= b else (b, a))
        cells.add(b)
        if eids is not None:
            # the lower cell id owns the segment; ids one apart are
            # vertical neighbours (axis 1)
            lo = prev if prev < cid else cid
            eids.append(2 * lo + (1 if prev - cid in (1, -1) else 0))
        prev, a = cid, b


def _astar(
    sources: set[tuple[int, int]],
    target: tuple[int, int],
    state: RoutingState,
    region: Rect | None,
    pres_fac: float,
    meter: EffortMeter,
):
    """Multi-source A* over the fabric cell ids; returns a cell-id path.

    The device geometry comes entirely from ``state.fabric`` — neighbor
    tables, region masks and this thread's generation-stamped scratch
    arrays.
    """
    fab = state.fabric
    h = fab.h
    xs, ys, nbr_table = fab.xs, fab.ys, fab.nbr
    usage, history = state._usage, state._history
    cap = state.capacity
    tx, ty = target
    tid = (tx + 1) * h + (ty + 1)
    mask = fab.region_mask(region) if region is not None else None

    scratch = fab.scratch
    scratch.generation += 1
    gen = scratch.generation
    best = scratch.best
    parent = scratch.parent
    stamp = scratch.stamp

    open_heap: list[tuple[float, int, int]] = []
    counter = 0
    for cx, cy in sources:
        cid = (cx + 1) * h + (cy + 1)
        open_heap.append((abs(cx - tx) + abs(cy - ty), counter, cid))
        counter += 1
        best[cid] = 0.0
        parent[cid] = -1
        stamp[cid] = gen
    heapq.heapify(open_heap)

    push = heapq.heappush
    pop = heapq.heappop
    expansions = 0
    while open_heap:
        f, _, cid = pop(open_heap)
        g = best[cid]
        if f - (abs(xs[cid] - tx) + abs(ys[cid] - ty)) > g + 1e-9:
            continue  # stale entry
        expansions += 1
        if cid == tid:
            meter.route_expansions += expansions
            path = [cid]
            nxt = parent[cid]
            while nxt != -1:
                path.append(nxt)
                nxt = parent[nxt]
            path.reverse()
            return path
        for ncid, eid in nbr_table[cid]:
            if mask is not None and not mask[ncid] and ncid != tid:
                continue
            step = 1.0 + history[eid]
            over = usage[eid] + 1 - cap
            if over > 0:
                step += pres_fac * over
            cost = g + step
            if (
                stamp[ncid] != gen or cost < best[ncid] - 1e-12
            ):
                best[ncid] = cost
                parent[ncid] = cid
                stamp[ncid] = gen
                push(
                    open_heap,
                    (cost + abs(xs[ncid] - tx) + abs(ys[ncid] - ty), counter, ncid),
                )
                counter += 1
    meter.route_expansions += expansions
    return None
