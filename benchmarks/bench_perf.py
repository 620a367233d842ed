"""Performance benchmark: simulation engines and the commit path.

Measures, per design:

* **simulation throughput** — pattern-cycles/second of the sequential
  simulator under each engine (identical outputs asserted);
* **localization wall-clock** — a full detect→localize campaign under
  each engine (interpreted, compiled); the localization
  *compute* time (seed + probe picking + emulation, excluding the P&R
  commits) is reported per probe, with the speedup and a bit-identical
  check on every probe verdict and the final candidates;
* **cone slicing** — the compiled campaign's probe-verdict replay
  time against the same campaign forced onto full-tape replay (cone
  slicing disabled), pricing the fanin-sliced probe runners against
  their alternative; both must take the identical probe trajectory;
* **commit phase** — the per-probe-round place-and-route cost.  The
  interpreted campaign runs against a cleared tile-configuration cache
  (cold: every commit pays the fresh hot-loop P&R), the compiled
  campaign re-presents the identical commits and replays precomputed
  configurations (warm).  Reported: seconds per commit cold/warm, warm
  cache hit rate, ``commit_speedup`` (cold/warm), and a routed-legality
  check of the final warm layout;
* **formal verify** — a corrected-vs-golden miter per output cone
  (:func:`repro.sat.equiv.prove_equivalence`) on the finished compiled
  campaign: miter build and solve seconds, the proof verdict, and how
  many outputs collapsed structurally before the solver ran;
* **multi-error loop** — a two-fault campaign through the
  diagnose→fix→re-detect round loop with ``verify="prove"``: rounds
  taken, probes and retired observation points per round, SAT
  eliminations per round (``"sat"`` strategy), and the final
  fixed/proved verdicts;
* **service warm-start** — the same spec submitted twice to a private
  debug-service daemon (:mod:`repro.service`): cold submission pays
  every per-process cost, warm must hit the worker's warm registry,
  answer bit-identically, and land ``service_warm_speedup`` >= 2x;
* **observability overhead** — the largest design's campaign with and
  without an armed :class:`~repro.obs.trace.Tracer`; the armed run
  must stay within ``OBS_OVERHEAD_LIMIT_PCT`` of the disarmed one and
  answer bit-identically;
* **initial P&R** (``pnr``) — absolute seconds of a design's initial
  place-and-route as the pipeline runs it (fast preset, seed 1, the
  spec's default device), min of ``PNR_REPEATS``, with annealer moves
  and router expansions per second; the effort counts must equal the
  pinned ``PNR_EFFORT_GOLDEN`` exactly.

Results land in ``BENCH_perf.json``; every run also *appends* a
timestamped summary to the file's ``history`` list, so the perf
trajectory accumulates across PRs instead of being overwritten.
Run with::

    PYTHONPATH=src python benchmarks/bench_perf.py \
        [--designs s9234,mips,des] [--out BENCH_perf.json] [--quick]

``--quick`` benches only the smallest design with a reduced probe
budget — the CI smoke configuration.

Acceptance gates (checked at the end, non-zero exit on failure):

* >=5x localization-compute speedup on the largest benchmarked design;
* >=2x commit-phase speedup (cold/warm) on the largest design;
* >2.5x end-to-end campaign speedup on ``des`` whenever it is benched;
* >=2x warm-vs-cold submission latency through the debug service
  (``service_warm``) on the largest design, with the second submission
  hitting the worker's warm registry and the results bit-identical;
* cone-sliced probe rounds never slower than the same compiled
  campaign on full-tape replay, on every design
  (``compiled_cone_sliced``: sliced/unsliced emulate <= 1.0);
* >=1.8x cone-sliced vs full-tape compiled *emulate* speedup on
  ``mips`` (``compiled_slicing_speedup``; without mips, or under
  ``--quick``, a regression canary on the best benched design);
* <5% wall-clock overhead with tracing armed (``obs_overhead``);
* initial-P&R effort counts equal to the pinned ones on every benched
  design that has a pin (``pnr_effort_exact``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.api import DebugPipeline, RunContext, RunResult, RunSpec
from repro.api.design import device_for
from repro.debug.testgen import random_stimulus
from repro.errors import DebugFlowError
from repro.generators import build_design
from repro.netlist.simulate import SequentialSimulator
from repro.pnr import EFFORT_PRESETS, EffortMeter, RoutingState, route_nets
from repro.pnr.flow import layout_legality_errors
from repro.pnr.placer import place_design
from repro.tiling.cache import DEFAULT_TILE_CACHE

DEFAULT_DESIGNS = ("s9234", "mips", "des")
QUICK_DESIGNS = ("s9234",)
#: error seeds chosen so each design's campaign detects and probes
ERROR_SEEDS = {"s9234": 3, "mips": 2, "des": 1}
#: error seeds whose two-fault injection detects on each design
MULTI_ERROR_SEEDS = {"s9234": 4, "mips": 1, "des": 1, "9sym": 6}
#: the "sat" strategy's cardinality-k pruner is benched on designs
#: small enough for the all-instances relaxation
MULTI_SAT_DESIGNS = {"s9234", "9sym"}
ENGINES = ("interpreted", "compiled")

SPEEDUP_TARGET = 5.0
COMMIT_SPEEDUP_TARGET = 2.0
CAMPAIGN_SPEEDUP_TARGET = 2.5
SERVICE_WARM_TARGET = 2.0
#: cone-sliced probe replay must beat full-tape replay on the mips
#: localization emulate phase by this much; without mips (and under
#: --quick, whose millisecond emulate phase is noise-dominated) the
#: best benched design must clear the canary figure instead
SLICING_SPEEDUP_TARGET = 1.8
SLICING_SPEEDUP_DESIGN = "mips"
SLICING_SPEEDUP_CANARY = 1.0
#: interleaved sliced/unsliced campaign pairs per design (min per arm)
SLICING_REPEATS = 3
#: armed tracing may cost at most this much wall-clock over disarmed
OBS_OVERHEAD_LIMIT_PCT = 5.0
#: interleaved plain/traced run pairs for the overhead gate (min per arm)
OBS_REPEATS = 5
#: timed initial place-and-route runs per design (min reported)
PNR_REPEATS = 3
#: (annealer moves, router expansions) of each design's initial P&R;
#: any change to a single move or expansion fails ``pnr_effort_exact``
#: (tests/test_pnr_golden.py pins the placements and routes)
PNR_EFFORT_GOLDEN = {
    "s9234": (3000, 9822),
    "mips": (31578, 110233),
    "des": (32284, 154540),
}


def bench_sim_throughput(
    design: str, n_cycles: int = 24, n_patterns: int = 64, seed: int = 1
) -> dict:
    """Pattern-cycles/sec of the sequential simulator, both engines."""
    bundle = build_design(design)
    netlist = bundle.mapped
    stimulus = random_stimulus(netlist, n_cycles, n_patterns, seed=seed)
    out = {"n_instances": len(netlist)}
    outputs = {}
    for engine in ENGINES:
        sim = SequentialSimulator(netlist, engine=engine)
        # warm untimed: throughput is the steady state
        sim.reset(n_patterns)
        sim.run(stimulus[:1], n_patterns)
        sim.reset(n_patterns)
        t0 = time.perf_counter()
        outputs[engine] = sim.run(stimulus, n_patterns)
        dt = time.perf_counter() - t0
        out[engine] = {
            "seconds": dt,
            "pattern_cycles_per_sec": n_cycles * n_patterns / dt,
        }
    assert outputs["interpreted"] == outputs["compiled"], (
        f"{design}: compiled disagrees with interpreted simulation"
    )
    out["identical_outputs"] = True
    out["speedup"] = (
        out["compiled"]["pattern_cycles_per_sec"]
        / out["interpreted"]["pattern_cycles_per_sec"]
    )
    return out


def bench_pnr(design: str) -> dict:
    """Absolute seconds and throughput of the initial place-and-route.

    Runs the body of :func:`repro.pnr.flow.full_place_and_route` with
    the pipeline's settings (fast preset, seed 1, non-strict routing,
    the spec's default device) ``PNR_REPEATS`` times, timing placement
    and routing separately; every repeat must meter the same effort.
    """
    packed = build_design(design).packed
    device = device_for(packed)
    preset = EFFORT_PRESETS["fast"]
    place_s, route_s, total_s = [], [], []
    efforts = set()
    for _ in range(PNR_REPEATS):
        meter = EffortMeter()
        t0 = time.perf_counter()
        placement = place_design(packed, device, seed=1, preset=preset,
                                 meter=meter)
        t1 = time.perf_counter()
        route_nets(packed, device, placement, state=RoutingState(device),
                   preset=preset, meter=meter, strict=False)
        t2 = time.perf_counter()
        place_s.append(t1 - t0)
        route_s.append(t2 - t1)
        total_s.append(t2 - t0)
        efforts.add((meter.place_moves, meter.route_expansions))
    assert len(efforts) == 1, f"{design}: P&R effort varies across runs"
    moves, expansions = efforts.pop()
    golden = PNR_EFFORT_GOLDEN.get(design)
    return {
        "repeats": PNR_REPEATS,
        "initial_seconds": min(total_s),
        "place_seconds": min(place_s),
        "route_seconds": min(route_s),
        "place_moves": moves,
        "route_expansions": expansions,
        "place_moves_per_s": moves / min(place_s),
        "route_expansions_per_s": expansions / min(route_s),
        "golden_effort": list(golden) if golden else None,
        "effort_exact": None if golden is None
        else (moves, expansions) == golden,
    }


def _localization_campaign(design: str, engine: str, error_seed: int,
                           max_probes: int):
    """One detect→localize→correct campaign; fresh design per engine.

    Driven through the :mod:`repro.api` pipeline.  Context
    materialization (design build, strategy construction) stays outside
    the timed region, matching the historical ``session.run`` timing.
    """
    spec = RunSpec(
        design=design, strategy="tiled", seed=1, preset="fast",
        engine=engine, error_kind="table_bit", error_seed=error_seed,
        max_probes=max_probes,
    )
    ctx = RunContext.from_spec(spec)
    t0 = time.perf_counter()
    DebugPipeline().execute(ctx)
    total = time.perf_counter() - t0
    return RunResult.from_context(ctx, wall_seconds=total), ctx


def bench_localization(design: str, error_seed: int,
                       max_probes: int = 12) -> dict:
    out: dict = {}
    results: dict[str, RunResult] = {}
    contexts = {}
    # the interpreted campaign runs cold (fresh cache); the compiled
    # campaign re-presents the identical commit sequence and replays the
    # precomputed configurations — the commit-phase comparison
    DEFAULT_TILE_CACHE.clear()
    for engine in ENGINES:
        result, ctx = _localization_campaign(
            design, engine, error_seed, max_probes
        )
        results[engine] = result
        contexts[engine] = ctx
        if not result.probe_trajectory:
            raise DebugFlowError(
                f"{design}: error seed {error_seed} produced no probes; "
                "pick a different ERROR_SEEDS entry"
            )
        out[engine] = {
            "campaign_seconds": result.wall_seconds,
            "n_probes": result.n_probes,
            "n_candidates": len(result.candidates),
            "localization_seconds": result.localization_seconds,
            "seconds_per_probe": (
                result.localization_seconds / result.n_probes
            ),
            "timings": dict(result.timings["localization"]),
            "commit_cache_hits": result.n_commit_cache_hits,
        }

    ri = results["interpreted"]
    rc = results["compiled"]
    assert ri.trajectory_key() == rc.trajectory_key(), (
        f"{design}: compiled probe trajectory diverges"
    )
    assert ri.candidates == rc.candidates, (
        f"{design}: compiled final candidate set diverges"
    )
    out["identical_results"] = True
    out["speedup"] = (
        ri.localization_seconds / rc.localization_seconds
    )
    out["campaign_speedup"] = (
        out["interpreted"]["campaign_seconds"]
        / out["compiled"]["campaign_seconds"]
    )

    out["slicing_phase"] = bench_slicing(
        design, error_seed, max_probes, rc
    )

    # ---- commit phase: cold (fresh P&R) vs warm (replayed configs) ----
    cold = ri.commit_seconds
    warm = rc.commit_seconds
    n_commits = rc.n_commits
    warm_hits = rc.n_commit_cache_hits
    out["commit_phase"] = {
        "n_commits": n_commits,
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "seconds_per_commit_cold": round(cold / max(1, n_commits), 6),
        "seconds_per_commit_warm": round(warm / max(1, n_commits), 6),
        "warm_cache_hits": warm_hits,
        "warm_cache_hit_rate": warm_hits / max(1, n_commits),
        "commit_speedup": cold / warm if warm > 0 else float("inf"),
        # region commits run non-strict, so capacity is reported by the
        # gate only through the overuse-allowance check at replay time
        "routed_legal": not layout_legality_errors(
            contexts["compiled"].strategy.layout, check_capacity=False
        ),
    }

    # ---- formal verify: per-output-cone miter on the corrected DUT ----
    out["formal_verify"] = bench_formal_verify(contexts["compiled"])
    return out


def bench_slicing(design: str, error_seed: int, max_probes: int,
                  reference: RunResult) -> dict:
    """Compiled emulate phase with and without cone-sliced probe replay.

    ``SLICING_REPEATS`` interleaved A/B pairs of the compiled campaign
    (alternating which arm runs first), min emulate seconds per arm:
    on the small designs the phase is milliseconds.  Every run must
    take ``reference``'s probe trajectory and final candidates.
    """
    from repro.debug.localize import ConeLocalizer

    emulate: dict[bool, list[float]] = {True: [], False: []}
    try:
        for pair in range(SLICING_REPEATS):
            for sliced in ((True, False) if pair % 2 else (False, True)):
                ConeLocalizer.use_cone_slicing = sliced
                result, _ = _localization_campaign(
                    design, "compiled", error_seed, max_probes
                )
                arm = "sliced" if sliced else "unsliced"
                assert result.trajectory_key() == reference.trajectory_key(), (
                    f"{design}: {arm} compiled probe trajectory diverges"
                )
                assert result.candidates == reference.candidates, (
                    f"{design}: {arm} compiled final candidate set diverges"
                )
                emulate[sliced].append(
                    result.timings["localization"]["emulate"]
                )
    finally:
        ConeLocalizer.use_cone_slicing = True
    sliced_s, unsliced_s = min(emulate[True]), min(emulate[False])
    return {
        "repeats": SLICING_REPEATS,
        "emulate_sliced_seconds": round(sliced_s, 6),
        "emulate_unsliced_seconds": round(unsliced_s, 6),
        "slicing_speedup": unsliced_s / sliced_s,
        "cone_sliced_ratio": sliced_s / unsliced_s,
    }


def bench_formal_verify(ctx, frames: int = 8) -> dict:
    """Bounded-equivalence proof of the campaign's corrected netlist."""
    from repro.sat.equiv import prove_equivalence

    proof = prove_equivalence(
        ctx.packed.netlist, ctx.golden, frames=frames, seed=1
    )
    return {
        "frames": frames,
        "proved": proof.proved,
        "n_outputs": len(proof.outputs),
        "n_structural": proof.n_structural,
        "n_vars": proof.n_vars,
        "n_clauses": proof.n_clauses,
        "build_seconds": round(proof.build_seconds, 6),
        "solve_seconds": round(proof.solve_seconds, 6),
        "solver_stats": proof.solver_stats,
    }


def bench_multi_error(design: str, error_seed: int,
                      max_probes: int = 12) -> dict:
    """Two-fault diagnose→fix→re-detect campaign with a bounded proof.

    Runs the ``"sat"`` strategy (cardinality-k pruning) on designs the
    all-instances relaxation can afford, plain ``"tiled"`` elsewhere.
    """
    from repro.api import run_spec

    strategy = "sat" if design in MULTI_SAT_DESIGNS else "tiled"
    spec = RunSpec(
        design=design, strategy=strategy, seed=1, preset="fast",
        error_kind="table_bit", error_seed=error_seed, n_errors=2,
        verify="prove", max_probes=max_probes, cache="private",
    )
    t0 = time.perf_counter()
    result = run_spec(spec)
    wall = time.perf_counter() - t0
    return {
        "strategy": strategy,
        "error_seed": error_seed,
        "n_errors": result.n_errors_injected,
        "detected": result.detected,
        "fixed": result.fixed,
        "proved": result.proved,
        "n_rounds": result.n_rounds,
        "errors_found": len(result.errors_found),
        "n_probes": result.n_probes,
        "n_sat_eliminated": result.n_sat_eliminated,
        "rounds": [
            {
                "round": r["round"],
                "n_probes": r["n_probes"],
                "probes_retired": r["probes_retired"],
                "sat_eliminated": r["sat_eliminated"],
                "corrected": r["corrected"],
                "residual_mismatches": r["residual_mismatches"],
            }
            for r in result.rounds
        ],
        "wall_seconds": round(wall, 6),
    }


#: RunResult fields that legitimately differ between two executions of
#: the same spec (clocks, attempt metadata, cache counters)
_VOLATILE_RESULT_FIELDS = {
    "wall_seconds", "timings", "effort", "cache", "attempts",
    "n_commit_cache_hits",
}


def bench_service_warm(design: str, error_seed: int,
                       max_probes: int = 12) -> dict:
    """Warm-vs-cold submission latency through the service daemon.

    Starts a private daemon (one worker, fresh cache dir), submits the
    same spec twice — the first pays every cold-start cost (bundle
    build, kernel lowering, fabric tables, cone bitsets, fresh P&R),
    the second must hit the worker's warm registry and replay tile
    configs — and reports client-observed latency for each.  Both
    results must be bit-identical modulo timing/attempt metadata:
    warm state is a cache, never a semantic input.
    """
    import shutil
    import tempfile

    from repro.service.client import Client
    from repro.service.daemon import ReproService, ServiceConfig

    spec = RunSpec(
        design=design, strategy="tiled", seed=1, preset="fast",
        error_kind="table_bit", error_seed=error_seed,
        max_probes=max_probes,
    )
    tmp = tempfile.mkdtemp(prefix="repro-bench-service-")
    config = ServiceConfig(
        socket_path=os.path.join(tmp, "service.sock"),
        cache_dir=os.path.join(tmp, "cache"),
        workers=1,
    )
    service = ReproService(config)
    service.start()
    try:
        client = Client(config.socket_path)
        # boot (python import + registry construction) is not part of
        # the cold-submission story; wait for the worker to report in
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            workers = client.stats().get("workers", [])
            if workers and all(w.get("ready") for w in workers):
                break
            time.sleep(0.05)

        t0 = time.perf_counter()
        cold_resp = client.run(spec, timeout_s=600.0)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_resp = client.run(spec, fresh=True, timeout_s=600.0)
        warm = time.perf_counter() - t0
    finally:
        service.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    assert not cold_resp["warm"]["hit"], (
        f"{design}: first service submission reported a warm hit"
    )
    assert warm_resp["warm"]["hit"], (
        f"{design}: second service submission missed the warm registry"
    )
    cold_result = cold_resp["result"]
    warm_result = warm_resp["result"]
    diverged = sorted(
        k for k in cold_result
        if k not in _VOLATILE_RESULT_FIELDS
        and cold_result[k] != warm_result.get(k)
    )
    assert not diverged, (
        f"{design}: warm service result diverges from cold on {diverged}"
    )
    return {
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "service_warm_speedup": cold / warm if warm > 0 else float("inf"),
        "warm_hit": True,
        "identical_results": True,
        "status": warm_result.get("status"),
    }


def bench_obs_overhead(design: str, error_seed: int,
                       max_probes: int = 12) -> dict:
    """Wall-clock cost of an armed tracer on a full campaign run.

    The observability layer promises "zero-cost when disarmed" (the
    default path never touches a tracer) and "cheap when armed".  This
    section prices the armed half: ``OBS_REPEATS`` interleaved
    plain/traced pairs of the same spec (alternating which arm runs
    first, so drift on a noisy host hits both arms alike), min seconds
    per arm, with semantic bit-identity asserted between arms —
    tracing observes the run, it must never steer it.
    """
    from repro.api import run_spec
    from repro.obs.trace import Tracer

    spec = RunSpec(
        design=design, strategy="tiled", seed=1, preset="fast",
        engine="compiled", error_kind="table_bit", error_seed=error_seed,
        max_probes=max_probes, cache="private",
    )
    run_spec(spec)  # warm-up: imports + kernel lowering, untimed

    runs: dict[bool, list] = {False: [], True: []}
    for pair in range(OBS_REPEATS):
        for traced in ((True, False) if pair % 2 else (False, True)):
            tracer = Tracer() if traced else None
            t0 = time.perf_counter()
            result = run_spec(spec, tracer=tracer)
            runs[traced].append((time.perf_counter() - t0, result, tracer))
    plain_s, plain_result, _ = min(runs[False], key=lambda t: t[0])
    traced_s, traced_result, _ = min(runs[True], key=lambda t: t[0])
    n_events = max(len(t.to_chrome_trace()["traceEvents"])
                   for _, _, t in runs[True])

    plain_dict = plain_result.to_dict()
    traced_dict = traced_result.to_dict()
    diverged = sorted(
        k for k in plain_dict
        if k not in _VOLATILE_RESULT_FIELDS
        and plain_dict[k] != traced_dict.get(k)
    )
    assert not diverged, (
        f"{design}: traced run diverges from untraced on {diverged}"
    )
    overhead_pct = 100.0 * (traced_s - plain_s) / plain_s
    return {
        "design": design,
        "pairs": OBS_REPEATS,
        "plain_seconds": round(plain_s, 6),
        "traced_seconds": round(traced_s, 6),
        "overhead_pct": round(overhead_pct, 3),
        "overhead_limit_pct": OBS_OVERHEAD_LIMIT_PCT,
        "n_trace_events": n_events,
        "identical_results": True,
    }


def append_history(out_path: str, results: dict) -> list:
    """Load any existing run history and append this run's summary."""
    history = []
    if os.path.exists(out_path):
        try:
            with open(out_path) as fh:
                history = json.load(fh).get("history", [])
        except (json.JSONDecodeError, OSError):
            history = []
    summary = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime()),
        "quick": results["quick"],
        "designs": {},
        "largest_design": results["largest_design"],
        "largest_localization_speedup": results[
            "largest_localization_speedup"
        ],
        "largest_commit_speedup": results["largest_commit_speedup"],
        "obs_overhead_pct": results["obs_overhead"]["overhead_pct"],
        "slicing_speedup": round(results["slicing_speedup"], 3),
        "gates_ok": results["gates_ok"],
    }
    for name, data in results["designs"].items():
        loc = data["localization"]
        fv = loc["formal_verify"]
        me = data["multi_error"]
        sw = data["service_warm"]
        pnr = data["pnr"]
        summary["designs"][name] = {
            "pnr": {
                "initial_seconds": round(pnr["initial_seconds"], 3),
                "place_moves_per_s": round(pnr["place_moves_per_s"]),
                "route_expansions_per_s": round(
                    pnr["route_expansions_per_s"]
                ),
            },
            "service_warm": {
                "cold_seconds": sw["cold_seconds"],
                "warm_seconds": sw["warm_seconds"],
                "speedup": round(sw["service_warm_speedup"], 3),
            },
            "sim_speedup": round(data["sim_throughput"]["speedup"], 3),
            "localization_speedup": round(loc["speedup"], 3),
            "slicing_speedup": round(
                loc["slicing_phase"]["slicing_speedup"], 3
            ),
            "cone_sliced_ratio": round(
                loc["slicing_phase"]["cone_sliced_ratio"], 3
            ),
            "campaign_speedup": round(loc["campaign_speedup"], 3),
            "commit_speedup": round(
                loc["commit_phase"]["commit_speedup"], 3
            ),
            "commit_hit_rate": loc["commit_phase"]["warm_cache_hit_rate"],
            "formal_verify": {
                "proved": fv["proved"],
                "build_seconds": fv["build_seconds"],
                "solve_seconds": fv["solve_seconds"],
            },
            "multi_error": {
                "strategy": me["strategy"],
                "fixed": me["fixed"],
                "proved": me["proved"],
                "n_rounds": me["n_rounds"],
                "n_probes": me["n_probes"],
                "probes_retired": sum(
                    r["probes_retired"] for r in me["rounds"]
                ),
                "sat_eliminated": me["n_sat_eliminated"],
                "wall_seconds": me["wall_seconds"],
            },
        }
    history.append(summary)
    return history


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--designs", default=None,
        help="comma-separated design names "
             f"(default: {','.join(DEFAULT_DESIGNS)})",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_perf.json, or "
             "BENCH_quick.json with --quick so smoke runs never "
             "overwrite the tracked full-run trajectory)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: smallest design only, reduced probe budget",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "BENCH_quick.json" if args.quick else "BENCH_perf.json"
    if args.designs is not None:
        designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    elif args.quick:
        designs = list(QUICK_DESIGNS)
    else:
        designs = list(DEFAULT_DESIGNS)
    if not designs:
        parser.error("--designs must name at least one design")
    from repro.generators import paper_design_names

    unknown = [d for d in designs if d not in paper_design_names()]
    if unknown:
        parser.error(
            f"unknown designs {unknown}; known: "
            + ", ".join(paper_design_names())
        )
    max_probes = 6 if args.quick else 12

    results: dict = {"designs": {}, "quick": args.quick}
    for design in designs:
        print(f"== {design} ==")
        sim = bench_sim_throughput(design)
        print(
            "  sim: interpreted {:.0f} pc/s, compiled {:.0f} pc/s "
            "({:.1f}x, bit-identical)".format(
                sim["interpreted"]["pattern_cycles_per_sec"],
                sim["compiled"]["pattern_cycles_per_sec"],
                sim["speedup"],
            )
        )
        pnr = bench_pnr(design)
        print(
            "  initial P&R: {:.3f}s (place {:.3f}s, {:.0f} moves/s; route "
            "{:.3f}s, {:.0f} expansions/s; min of {}), effort {}".format(
                pnr["initial_seconds"], pnr["place_seconds"],
                pnr["place_moves_per_s"], pnr["route_seconds"],
                pnr["route_expansions_per_s"], pnr["repeats"],
                {True: "= pinned", False: "!= pinned", None: "unpinned"}[
                    pnr["effort_exact"]
                ],
            )
        )
        loc = bench_localization(
            design, ERROR_SEEDS.get(design, 1), max_probes=max_probes
        )
        print(
            "  localization: interpreted {:.3f}s ({:.3f}s/probe), "
            "compiled {:.3f}s ({:.4f}s/probe) — {:.1f}x, "
            "bit-identical over {} probes".format(
                loc["interpreted"]["localization_seconds"],
                loc["interpreted"]["seconds_per_probe"],
                loc["compiled"]["localization_seconds"],
                loc["compiled"]["seconds_per_probe"],
                loc["speedup"],
                loc["compiled"]["n_probes"],
            )
        )
        sp = loc["slicing_phase"]
        print(
            "  compiled emulate: full-tape {:.3f}s -> cone-sliced {:.3f}s "
            "({:.2f}x, min of {}, identical trajectory)".format(
                sp["emulate_unsliced_seconds"],
                sp["emulate_sliced_seconds"],
                sp["slicing_speedup"],
                sp["repeats"],
            )
        )
        cp = loc["commit_phase"]
        print(
            "  commit: cold {:.3f}s ({:.1f}ms/commit), warm {:.3f}s "
            "({:.1f}ms/commit) — {:.1f}x, {}/{} cached, legal={}".format(
                cp["cold_seconds"],
                1e3 * cp["seconds_per_commit_cold"],
                cp["warm_seconds"],
                1e3 * cp["seconds_per_commit_warm"],
                cp["commit_speedup"],
                cp["warm_cache_hits"],
                cp["n_commits"],
                cp["routed_legal"],
            )
        )
        print(
            "  campaign: {:.1f}x end-to-end".format(loc["campaign_speedup"])
        )
        fv = loc["formal_verify"]
        print(
            "  formal verify: proved={} over {} frames, {}/{} outputs "
            "structural, build {:.3f}s solve {:.3f}s".format(
                fv["proved"], fv["frames"], fv["n_structural"],
                fv["n_outputs"], fv["build_seconds"], fv["solve_seconds"],
            )
        )
        me = bench_multi_error(
            design, MULTI_ERROR_SEEDS.get(design, 1), max_probes=max_probes
        )
        print(
            "  multi-error ({}): fixed={} proved={} over {} rounds, "
            "{} probes, {} retired, {} sat-eliminated, {:.2f}s".format(
                me["strategy"], me["fixed"], me["proved"], me["n_rounds"],
                me["n_probes"],
                sum(r["probes_retired"] for r in me["rounds"]),
                me["n_sat_eliminated"], me["wall_seconds"],
            )
        )
        sw = bench_service_warm(
            design, ERROR_SEEDS.get(design, 1), max_probes=max_probes
        )
        print(
            "  service: cold {:.3f}s -> warm {:.3f}s ({:.1f}x, warm hit, "
            "bit-identical)".format(
                sw["cold_seconds"], sw["warm_seconds"],
                sw["service_warm_speedup"],
            )
        )
        results["designs"][design] = {
            "pnr": pnr,
            "sim_throughput": sim,
            "localization": loc,
            "multi_error": me,
            "service_warm": sw,
        }

    # gates run on the largest design (by instance count, not order)
    largest = max(
        designs,
        key=lambda d: results["designs"][d]["sim_throughput"]["n_instances"],
    )
    largest_loc = results["designs"][largest]["localization"]
    results["largest_design"] = largest
    results["largest_localization_speedup"] = largest_loc["speedup"]
    results["largest_commit_speedup"] = (
        largest_loc["commit_phase"]["commit_speedup"]
    )
    results["speedup_target"] = SPEEDUP_TARGET
    results["commit_speedup_target"] = COMMIT_SPEEDUP_TARGET
    results["campaign_speedup_target"] = CAMPAIGN_SPEEDUP_TARGET
    results["service_warm_target"] = SERVICE_WARM_TARGET
    results["largest_service_warm_speedup"] = results["designs"][
        largest
    ]["service_warm"]["service_warm_speedup"]
    # slicing pays off with design size: the full target is set on
    # mips; other subsets and quick mode (the smallest design, whose
    # emulate phase is noise-dominated) gate the best showing against
    # a regression canary
    slicing = {
        d: data["localization"]["slicing_phase"]["slicing_speedup"]
        for d, data in results["designs"].items()
    }
    if SLICING_SPEEDUP_DESIGN in slicing and not args.quick:
        results["slicing_speedup"] = slicing[SLICING_SPEEDUP_DESIGN]
        results["slicing_speedup_target"] = SLICING_SPEEDUP_TARGET
    else:
        results["slicing_speedup"] = max(slicing.values())
        results["slicing_speedup_target"] = SLICING_SPEEDUP_CANARY

    obs = bench_obs_overhead(
        largest, ERROR_SEEDS.get(largest, 1), max_probes=max_probes
    )
    results["obs_overhead"] = obs
    print(
        "obs overhead ({}): plain {:.3f}s -> traced {:.3f}s "
        "({:+.2f}%, {} events, bit-identical; limit {:.0f}%)".format(
            largest, obs["plain_seconds"], obs["traced_seconds"],
            obs["overhead_pct"], obs["n_trace_events"],
            OBS_OVERHEAD_LIMIT_PCT,
        )
    )

    gates = {
        "obs_overhead": obs["overhead_pct"] < OBS_OVERHEAD_LIMIT_PCT,
        "service_warm_speedup": (
            results["largest_service_warm_speedup"]
            >= SERVICE_WARM_TARGET
        ),
        "localization_speedup": (
            largest_loc["speedup"] >= SPEEDUP_TARGET
        ),
        "commit_speedup": (
            largest_loc["commit_phase"]["commit_speedup"]
            >= COMMIT_SPEEDUP_TARGET
        ),
        "routed_legal": largest_loc["commit_phase"]["routed_legal"],
        "compiled_slicing_speedup": (
            results["slicing_speedup"] >= results["slicing_speedup_target"]
        ),
        # cone-sliced probe rounds must never lose to full-tape replay
        "compiled_cone_sliced": all(
            data["localization"]["slicing_phase"]["cone_sliced_ratio"]
            <= 1.0
            for data in results["designs"].values()
        ),
        # the two-fault loop must land a verified fix on every design
        "multi_error_fixed": all(
            data["multi_error"]["fixed"] and data["multi_error"]["proved"]
            for data in results["designs"].values()
        ),
    }
    pinned = [
        data["pnr"]["effort_exact"] for data in results["designs"].values()
        if data["pnr"]["effort_exact"] is not None
    ]
    if pinned:
        gates["pnr_effort_exact"] = all(pinned)
    if "des" in results["designs"]:
        gates["des_campaign_speedup"] = (
            results["designs"]["des"]["localization"]["campaign_speedup"]
            > CAMPAIGN_SPEEDUP_TARGET
        )
    results["gates"] = gates
    results["gates_ok"] = all(gates.values())
    # retained for older tooling reading this file
    results["speedup_ok"] = gates["localization_speedup"]

    results["history"] = append_history(args.out, results)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(f"\nwrote {args.out} ({len(results['history'])} runs in history)")
    print(
        "largest design {}: {:.1f}x localization (>= {:.0f}x), "
        "{:.1f}x commit phase (>= {:.0f}x) — {}".format(
            largest,
            largest_loc["speedup"],
            SPEEDUP_TARGET,
            largest_loc["commit_phase"]["commit_speedup"],
            COMMIT_SPEEDUP_TARGET,
            "OK" if results["gates_ok"] else "FAIL "
            + str([k for k, v in gates.items() if not v]),
        )
    )
    return 0 if results["gates_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
