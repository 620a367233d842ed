"""Layer wrappers and span accounting for the traced benchmark run.

The benchmark times the program from outside: :func:`install` wraps
the public entry points of each layer (design build, P&R, tiling,
emulation, localization, correction, SAT) with a recorder that keeps
spans in memory.  A span is ``[name, start, end, parent, job]`` with
times from ``time.perf_counter``; ``parent`` is the index of the
enclosing span on the same thread, or -1.  :func:`uninstall` restores
every original binding, so untraced runs in the same process execute
the program unmodified.

A wrapped function can be bound under its name in several modules
(``from repro.debug.detect import detect_on_layout``), so installation
rebinds every ``repro.*`` module attribute that holds the original.

Self time is a span's duration minus the durations of its direct
children; because children of one thread nest strictly inside their
parent, the self times of a job's spans add up to the time its
top-level spans cover.
"""

from __future__ import annotations

import sys
import threading
import time

#: (module, qualified attribute, span name).  A dotted attribute names
#: a method on a class; a bare one a module-level function.
TARGETS = (
    ("repro.api.design", "load_bundle", "generators.build"),
    ("repro.debug.strategies", "BaseStrategy.build_initial", "pnr.initial"),
    ("repro.debug.strategies", "BaseStrategy.commit", "pnr.commit"),
    ("repro.debug.strategies", "TiledStrategy.commit", "pnr.commit"),
    ("repro.debug.strategies", "QuickEcoStrategy.commit", "pnr.commit"),
    ("repro.debug.strategies", "IncrementalStrategy.commit", "pnr.commit"),
    ("repro.debug.strategies", "BaseStrategy.prepare_for_debug",
     "tiling.prepare"),
    ("repro.debug.strategies", "TiledStrategy.prepare_for_debug",
     "tiling.prepare"),
    ("repro.pnr.flow", "apply_region_config", "tiling.replay"),
    ("repro.tiling.cache", "TileConfigCache.lookup", "tiling.lookup"),
    ("repro.tiling.cache", "TileConfigCache.store", "tiling.store"),
    ("repro.tiling.cache", "TileConfigStore.write_entry", "tiling.store"),
    ("repro.emu.emulator", "Emulator.run", "emu.emulate"),
    ("repro.emu.emulator", "Emulator.run_with_flags", "emu.emulate"),
    ("repro.emu.emulator", "Emulator.step", "emu.emulate"),
    ("repro.emu.emulator", "Emulator.cone_runner", "emu.emulate"),
    ("repro.netlist.codegen", "ConeRunner.step", "emu.emulate"),
    ("repro.debug.detect", "detect_on_layout", "debug.detect"),
    ("repro.netlist.core", "Netlist.copy", "netlist.copy"),
    ("repro.debug.localize", "_SetCandidateOps.pick", "debug.pick"),
    ("repro.debug.localize", "_BitsetCandidateOps.pick", "debug.pick"),
    ("repro.api.pipeline", "CorrectStage.run", "debug.correct"),
    ("repro.sat.diagnose", "SuspectPruner.prune", "sat.prune"),
    ("repro.sat.cegis", "synthesize_tables", "sat.cegis"),
    ("repro.sat.equiv", "prove_equivalence", "sat.prove"),
    ("repro.sat.solver", "Solver.solve", "sat.solve"),
)


class Recorder:
    """In-memory span store plus per-name result counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str = ""
        self.first_call_wall: float | None = None
        #: name -> summed counters harvested from return values
        self.counts: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, fn, name: str):
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.first_call_wall is None:
                recorder.first_call_wall = time.time()
            stack = recorder._stack()
            index = len(recorder.spans)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, recorder.job]
            recorder.spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            recorder.harvest(name, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def harvest(self, name: str, out) -> None:
        """Work counters read from a wrapped call's return value."""
        if name == "tiling.lookup":
            self.count("tiling.hits" if out is not None else "tiling.misses")
        elif name == "netlist.copy":
            self.count("netlist.copy_calls")
        elif name == "sat.prune":
            self.count("sat.prune_calls")
            self.count("sat.eliminated", len(out or ()))
        elif name == "sat.cegis":
            self.count("sat.cegis_calls")
            self.count("sat.cegis_iterations", getattr(out, "iterations", 0))
        elif name == "sat.prove":
            outputs = getattr(out, "outputs", {}) or {}
            self.count("sat.prove_outputs", len(outputs))
            self.count("sat.prove_structural",
                       getattr(out, "n_structural", 0))
        elif name == "sat.solve":
            self.count("sat.solves")


_installed: list[tuple] = []


def _resolve(module_name: str, attr: str):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def install(recorder: Recorder) -> None:
    """Wrap every target; idempotent only after :func:`uninstall`."""
    import importlib

    if _installed:
        raise RuntimeError("layer wrappers already installed")
    for module_name, _, _ in TARGETS:
        importlib.import_module(module_name)
    for module_name, attr, name in TARGETS:
        owner, key = _resolve(module_name, attr)
        if "." in attr:
            # methods: wrap only where the class defines its own
            original = owner.__dict__.get(key)
            if original is None:
                continue
            _installed.append((owner, key, original))
            setattr(owner, key, recorder.wrap(original, name))
            continue
        original = getattr(owner, key)
        wrapped = recorder.wrap(original, name)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for bound_name, value in list(vars(module).items()):
                if value is original:
                    _installed.append((module, bound_name, original))
                    setattr(module, bound_name, wrapped)


def uninstall() -> None:
    while _installed:
        owner, key, original = _installed.pop()
        setattr(owner, key, original)


# -- aggregation ---------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus direct children."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def attributed(spans: list[list]) -> float:
    """Seconds covered by top-level spans."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


def self_by_name(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def span_tree(spans: list[list]) -> list[dict]:
    """Spans folded by name path: count, total and self seconds."""
    paths: list[tuple] = []
    folded: dict[tuple, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        parent = span[3]
        path = (paths[parent] if parent >= 0 else ()) + (span[0],)
        paths.append(path)
        row = folded.setdefault(path, {"count": 0, "total_s": 0.0,
                                       "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return [
        {"path": "/".join(path), **row}
        for path, row in sorted(folded.items())
    ]
