"""Device model: CLB grid, IOB ring, routing channels.

The model mirrors the parts of the XC4000 family the paper's experiments
exercise: a square array of CLBs (each two 4-LUTs + two FFs, per the
1996 Programmable Logic Data Book [13]), bonded IOBs around the
perimeter, and routing channels between rows and columns with a fixed
track capacity.

Geometry conventions:

* CLB sites occupy ``0 <= x < nx``, ``0 <= y < ny``;
* IOB slots live on the ring one unit outside the array
  (``x == -1``, ``x == nx``, ``y == -1`` or ``y == ny``), each slot
  holding up to :attr:`DeviceSpec.io_per_slot` pads;
* the router works on the full ``(nx+2) x (ny+2)`` cell grid, so IOB
  ring cells are routable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ArchitectureError
from repro.geometry import Rect


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one family member.

    ``channel_width`` aggregates the tracks of one inter-CLB channel
    segment (XC4000: ~8 singles + 4 doubles + long lines per side, and
    the switch matrices multiply usable paths — 24 keeps the abstracted
    one-edge-per-cell-pair model congestion-faithful).
    """

    name: str
    nx: int
    ny: int
    channel_width: int = 24
    io_per_slot: int = 2

    @property
    def n_clbs(self) -> int:
        return self.nx * self.ny

    @property
    def n_io_slots(self) -> int:
        return 2 * (self.nx + self.ny)

    @property
    def io_capacity(self) -> int:
        return self.n_io_slots * self.io_per_slot


#: The XC4000 family members of the 1996 data book (CLB array sizes).
XC4000_FAMILY: tuple[DeviceSpec, ...] = (
    DeviceSpec("XC4003", 10, 10),
    DeviceSpec("XC4005", 14, 14),
    DeviceSpec("XC4006", 16, 16),
    DeviceSpec("XC4008", 18, 18),
    DeviceSpec("XC4010", 20, 20),
    DeviceSpec("XC4013", 24, 24),
    DeviceSpec("XC4020", 28, 28),
    DeviceSpec("XC4025", 32, 32),
    DeviceSpec("XC4028", 34, 34),
    DeviceSpec("XC4036", 36, 36),
    DeviceSpec("XC4044", 40, 40),
    DeviceSpec("XC4052", 44, 44),
    DeviceSpec("XC4062", 48, 48),
    DeviceSpec("XC4085", 56, 56),
)


class Device:
    """A concrete device instance with geometry helpers."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.nx = spec.nx
        self.ny = spec.ny
        self.channel_width = spec.channel_width
        self.io_per_slot = spec.io_per_slot
        #: the whole CLB grid (the default placement region)
        self.clb_region = Rect(0, 0, self.nx - 1, self.ny - 1)

    @property
    def name(self) -> str:
        return self.spec.name

    def is_clb_site(self, x: int, y: int) -> bool:
        return 0 <= x < self.nx and 0 <= y < self.ny

    def is_io_slot(self, x: int, y: int) -> bool:
        on_x_ring = x in (-1, self.nx) and -1 <= y <= self.ny
        on_y_ring = y in (-1, self.ny) and -1 <= x <= self.nx
        corner = x in (-1, self.nx) and y in (-1, self.ny)
        return (on_x_ring or on_y_ring) and not corner

    def io_slots(self) -> list[tuple[int, int]]:
        """All IOB ring slots in deterministic clockwise order."""
        slots: list[tuple[int, int]] = []
        slots.extend((x, self.ny) for x in range(self.nx))  # top, left→right
        slots.extend((self.nx, y) for y in range(self.ny - 1, -1, -1))  # right
        slots.extend((x, -1) for x in range(self.nx - 1, -1, -1))  # bottom
        slots.extend((-1, y) for y in range(self.ny))  # left, bottom→top
        return slots

    def is_routable(self, x: int, y: int) -> bool:
        """The router may use CLB sites and the IOB ring (not corners)."""
        return self.is_clb_site(x, y) or self.is_io_slot(x, y)

    def neighbors(self, x: int, y: int) -> list[tuple[int, int]]:
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cx, cy = x + dx, y + dy
            if self.is_routable(cx, cy):
                out.append((cx, cy))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.name}, {self.nx}x{self.ny})"


def pick_device(
    n_clbs: int,
    area_overhead: float = 0.0,
    min_io: int = 0,
    channel_width: int | None = None,
) -> Device:
    """Smallest family member fitting ``n_clbs`` plus overhead slack.

    ``area_overhead`` is the paper's user-controlled slack parameter —
    the device must hold ``n_clbs * (1 + overhead)`` CLBs so tiles can
    keep spare resources for test-logic introduction.
    """
    needed = int(n_clbs * (1.0 + area_overhead) + 0.999)
    for spec in XC4000_FAMILY:
        if spec.n_clbs >= needed and spec.io_capacity >= min_io:
            if channel_width is not None:
                spec = DeviceSpec(
                    spec.name, spec.nx, spec.ny, channel_width, spec.io_per_slot
                )
            return Device(spec)
    raise ArchitectureError(
        f"no XC4000 family member holds {needed} CLBs and {min_io} IOs "
        f"(largest is {XC4000_FAMILY[-1].name})"
    )


def custom_device(
    nx: int, ny: int, channel_width: int = 24, io_per_slot: int = 2
) -> Device:
    """An arbitrary-size device for tests and scaled-down experiments."""
    if nx < 1 or ny < 1:
        raise ArchitectureError(f"bad grid {nx}x{ny}")
    return Device(DeviceSpec(f"custom{nx}x{ny}", nx, ny, channel_width, io_per_slot))
