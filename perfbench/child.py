"""Child process: runs RunSpecs through the public API for the benchmark.

Spawned by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``; it prints JSON lines on stdout, the last of which
is its answer.

    python3 perfbench/child.py ready
        import the API and report; the interpreter bring-up floor
    python3 perfbench/child.py job [--spans FILE] < spec.json
        one cold run_spec with probe timestamps (traced with --spans)
    python3 perfbench/child.py warm --cache-dir DIR --jobs FILE
        the daemon worker's warm path in-process: a WarmRegistry over
        DIR, one priming pass, then each job untraced and traced
"""

from __future__ import annotations

import argparse
import json
import sys
import time

def _counter(snapshot: dict, name: str) -> float:
    return sum(
        float(e.get("value", 0.0))
        for e in snapshot.get("counters", []) if e.get("name") == name
    )


def _make_clock():
    from repro.api import PipelineHooks

    class ProbeClock(PipelineHooks):
        """Gaps between successive probes; a round's first probe is
        timed from its localize stage start."""

        def __init__(self) -> None:
            self.gaps: list[float] = []
            self._last: float | None = None

        def on_stage_start(self, stage, ctx) -> None:
            if stage.name == "localize":
                self._last = time.perf_counter()

        def on_probe(self, ctx, step) -> None:
            now = time.perf_counter()
            if self._last is not None:
                self.gaps.append(now - self._last)
            self._last = now

    return ProbeClock()


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def _traced_run(run, job_id: str) -> dict:
    """Run ``run()`` (returning ``(result, ctx)``) under the layer
    wrappers; returns the trace record of this job."""
    from layers import Recorder, attributed, install, uninstall
    from repro.obs.metrics import METRICS

    recorder = Recorder()
    recorder.job = job_id
    before = METRICS.snapshot()
    install(recorder)
    t0 = time.perf_counter()
    try:
        result, ctx = run()
    finally:
        wall = time.perf_counter() - t0
        uninstall()
    after = METRICS.snapshot()
    return {
        "result": result.to_dict(),
        "wall_s": wall,
        "attributed_s": attributed(recorder.spans),
        "spans": recorder.spans,
        "counts": recorder.counts,
        "first_call_wall": recorder.first_call_wall,
        "instances": len(ctx.packed.netlist) if ctx is not None else 0,
        "sat_conflicts": _counter(after, "repro_sat_conflicts_total")
        - _counter(before, "repro_sat_conflicts_total"),
    }


def cmd_job(args) -> int:
    from repro.api import RunSpec, run_spec

    spec = RunSpec.from_json(sys.stdin.readline())
    clock = _make_clock()
    if args.spans:
        record = _traced_run(
            lambda: run_spec(spec, hooks=clock, return_context=True),
            job_id=spec.digest()[:12],
        )
        with open(args.spans, "w") as fh:
            json.dump(record.pop("spans"), fh)
    else:
        record = {"result": run_spec(spec, hooks=clock).to_dict()}
    record["probe_gaps"] = clock.gaps
    _emit(record)
    return 0


def cmd_warm(args) -> int:
    from repro.api import RunSpec, run_spec
    from repro.netlist.codegen import set_active_kernel_cache
    from repro.netlist.cones import set_active_cone_memo
    from repro.service.warm import WarmRegistry

    with open(args.jobs) as fh:
        specs = [RunSpec.from_dict(d) for d in json.load(fh)]
    _emit({"imported": time.time()})
    registry = WarmRegistry(cache_dir=args.cache_dir)
    set_active_cone_memo(registry.cone_memo)
    set_active_kernel_cache(registry.codegen_cache)

    def run_one(spec, hooks=None, return_context=False):
        out = run_spec(spec, hooks=hooks, tile_cache=registry.cache_for(spec),
                       warm=registry, return_context=return_context)
        registry.write_back()
        return out

    for spec in specs:  # priming pass: registry entries, kernels
        run_one(spec)
    for index, spec in enumerate(specs):
        clock = _make_clock()
        # pairs alternate which side runs first
        for traced in ((True, False) if index % 2 else (False, True)):
            if traced:
                record = _traced_run(
                    lambda: run_one(spec, hooks=clock, return_context=True),
                    job_id=f"{index}:{spec.design}",
                )
                continue
            t0 = time.perf_counter()
            plain = run_one(spec)
            plain_s = time.perf_counter() - t0
        record.update(untraced_wall_s=plain_s,
                      untraced_result=plain.to_dict(),
                      probe_gaps=clock.gaps)
        _emit(record)
    return 0


def cmd_ready(args) -> int:
    import repro.api  # noqa: F401 — the import is what is measured

    _emit({"ready": True})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("ready").set_defaults(func=cmd_ready)
    p_job = sub.add_parser("job")
    p_job.add_argument("--spans")
    p_job.set_defaults(func=cmd_job)
    p_warm = sub.add_parser("warm")
    p_warm.add_argument("--cache-dir", required=True)
    p_warm.add_argument("--jobs", required=True)
    p_warm.set_defaults(func=cmd_warm)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
