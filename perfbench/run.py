"""End-to-end debug benchmark: cold runs, and SAT repair on a warm daemon.

    python3 perfbench/run.py --workload cold_debug --seed 1 --seconds 36 --trace 0

Run from the root of a checkout (the program is imported from
``src``).  One closed-loop client sends one job at a time:

* ``cold_debug``   each job is a fresh interpreter (``child.py job``)
                   calling ``repro.api.run_spec``;
* ``sat_repair``   a ``python -m repro serve --workers 1`` daemon with a
                   private ``--cache-dir``, an untimed warm-up pass, then
                   timed ``fresh=True`` resubmissions of SAT/CEGIS/prove
                   jobs.

Each workload has a fixed job catalog, drawn from ``ERROR_KINDS`` with
``CATALOG_SEED``; ``--seed`` draws the order in which each pass submits
it (``NOTES.md`` says why).  ``--seconds`` sets the number of whole
passes, at the pass time ``PASS_SECONDS`` measured on the reference box.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the
same jobs with the layer wrappers of ``layers.py`` and prints the
per-layer metrics, writing the span tree and per-layer table under
``.perfbench/<workload>/``.  Every answer is checked against the
injected errors rebuilt independently with ``inject_errors``, and a job
answered more than once must give the same answer digest each time;
any wrong answer makes the command exit 1.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"

#: whole-run ceiling; the command must exit well inside 180 s
WATCHDOG_S = 170
#: seed of the job catalogs every run measures (see NOTES.md)
CATALOG_SEED = 0

COMMON = {"preset": "fast"}
#: cold runs take the default engine, as a user's first run does; the
#: daemon workload takes codegen, whose kernels the warm registry keeps
ENGINES = {"cold_debug": "compiled", "sat_repair": "codegen"}
#: design slots per workload catalog, in catalog order
SLOTS = {
    "cold_debug": [
        {"design": "s9234"}, {"design": "mips"}, {"design": "s9234"},
        {"design": "des"}, {"design": "s9234"}, {"design": "s9234"},
        {"design": "s9234"}, {"design": "s9234"}, {"design": "s9234"},
    ],
    "sat_repair": [
        {"design": "s9234", "n_errors": 2, "strategy": "sat",
         "correction": "cegis", "verify": "prove"},
        {"design": "des", "correction": "cegis"},
        {"design": "9sym", "n_errors": 2, "strategy": "sat",
         "correction": "cegis", "verify": "prove"},
        # two more draws: with the first three alone, half of each
        # pass's probe gaps are fast and half slow, so the probe p50
        # and the job tail fall between job classes (see NOTES.md)
        {"design": "s9234", "n_errors": 2, "strategy": "sat",
         "correction": "cegis", "verify": "prove"},
        {"design": "9sym", "n_errors": 2, "strategy": "sat",
         "correction": "cegis", "verify": "prove"},
    ],
}
WORKLOADS = tuple(SLOTS)
#: seconds one pass over the catalog takes on the reference box (two
#: cores, fast preset); sets how many passes fill ``--seconds``
PASS_SECONDS = {"cold_debug": 24.5, "sat_repair": 5.2}

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_tail_s", "s"),
    ("jobs_per_min", "1/min"),
    ("probe_turnaround_p50_s", "s"),
    ("probe_turnaround_tail_s", "s"),
    ("jobs_ok_ratio", "ratio"),
    ("detected_ratio", "ratio"),
    ("localized_ratio", "ratio"),
    ("probes_per_job", "count"),
    ("final_candidates_mean", "count"),
    ("peak_rss_mb", "MB"),
)
#: (name, unit) of the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("generators.build_s", "s"),
    ("netlist.instances", "count"),
    ("pnr.initial_s", "s"),
    ("pnr.initial_place_moves", "count"),
    ("pnr.initial_route_expansions", "count"),
    ("pnr.commit_s", "s"),
    ("pnr.debug_place_moves", "count"),
    ("pnr.debug_route_expansions", "count"),
    ("pnr.work_units_per_commit", "count"),
    ("tiling.prepare_s", "s"),
    ("tiling.cache_hit_ratio", "ratio"),
    ("tiling.replay_s", "s"),
    ("tiling.store_s", "s"),
    ("emu.emulate_s", "s"),
    ("debug.detect_s", "s"),
    ("netlist.copy_calls", "count"),
    ("netlist.copy_s", "s"),
    ("debug.pick_s", "s"),
    ("debug.correct_s", "s"),
    ("sat.prune_s", "s"),
    ("sat.eliminated_per_prune", "count"),
    ("sat.cegis_s", "s"),
    ("sat.cegis_candidates_tried", "count"),
    ("sat.cegis_iterations", "count"),
    ("sat.prove_s", "s"),
    ("sat.prove_structural_ratio", "ratio"),
    ("sat.solve_s", "s"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("service.queue_wait_s", "s"),
    ("service.warm_hit_ratio", "ratio"),
    ("api.import_s", "s"),
    ("api.unattributed_s", "s"),
    ("trace_overhead_pct", "%"),
)

#: child processes still to be stopped; the daemon runs in its own group
_LIVE: list = []
#: process groups of daemons whose members may still be running
_GROUPS: list = []
#: prctl option that makes orphaned descendants this process's children
PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


# -- job catalog -----------------------------------------------------------


def catalog(workload: str) -> list:
    """The workload's RunSpecs: kinds and error seeds drawn, unfiltered."""
    from repro.api import RunSpec
    from repro.debug.errors import ERROR_KINDS

    rng = random.Random(f"{workload}:{CATALOG_SEED}")
    specs = []
    for slot in SLOTS[workload]:
        fields = dict(COMMON, engine=ENGINES[workload], **slot)
        n = fields.get("n_errors", 1)
        kinds = [rng.choice(ERROR_KINDS) for _ in range(n)]
        fields["error_seed"] = rng.randrange(1000)
        if n > 1:
            fields["error_kinds"] = kinds
        else:
            fields["error_kind"] = kinds[0]
        specs.append(RunSpec(**fields))
    return specs


# -- processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p
    )
    return env


def reap(proc, timeout_s: float = 30.0):
    """Wait for ``proc`` (killing it past ``timeout_s``); its rusage."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc in _LIVE:
                _LIVE.remove(proc)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + 30.0
        time.sleep(0.02)


def become_subreaper() -> None:
    """Adopt orphaned descendants.  The daemon may exit before its
    worker does; adopted, that worker can be waited for here."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError("prctl(PR_SET_CHILD_SUBREAPER) failed: "
                         + os.strerror(ctypes.get_errno()))


def wait_group(pgid: int, timeout_s: float = 30.0) -> None:
    """Wait until no process of group ``pgid`` is left (SIGKILLing the
    group past ``timeout_s``).  Every member is a child of this
    process once the daemon leading the group has been reaped."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            break
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except OSError:
                pass
            deadline = time.monotonic() + 30.0
        time.sleep(0.02)
    if pgid in _GROUPS:
        _GROUPS.remove(pgid)


def run_child(args: list, stdin_text: str, log: Path) -> tuple:
    """Spawn ``child.py``; returns (last JSON line, seconds, rss KiB,
    spawn wall time).  Seconds run from spawn to the answer parsed."""
    spawn_wall = time.time()
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
        )
    _LIVE.append(proc)
    proc.stdin.write(stdin_text.encode())
    proc.stdin.close()
    lines = proc.stdout.read().decode().splitlines()
    answer = json.loads(lines[-1]) if lines else None
    seconds = time.perf_counter() - t0
    proc.stdout.close()
    usage = reap(proc)
    if proc.returncode != 0 or answer is None:
        raise BenchError(f"child {args[0]} exited {proc.returncode}; "
                         f"see {log}")
    return answer, seconds, usage.ru_maxrss, spawn_wall


class Daemon:
    """``python -m repro serve`` in its own process group."""

    def __init__(self, workdir: Path) -> None:
        from repro.service import Client

        # relative socket path: the checkout path may exceed the
        # AF_UNIX limit, so client and daemon both run in workdir
        os.chdir(workdir)
        t0 = time.perf_counter()
        with open(workdir / "daemon.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket",
                 "s.sock", "--cache-dir", "cache", "--workers", "1"],
                cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
            )
        _LIVE.append(self.proc)
        _GROUPS.append(self.proc.pid)
        self.client = Client("s.sock", timeout_s=60.0)
        while True:
            try:
                self.client.ping()
                break
            except Exception:
                if self.proc.poll() is not None:
                    raise BenchError("daemon died; see daemon.log")
                time.sleep(0.01)
        self.ready_s = time.perf_counter() - t0

    def run(self, spec) -> dict:
        """Submit→result for one job.  Probe gaps use the worker's event
        stamps (1 ms): the stream delivers fast probes in batches, so
        their arrival times here would read as zero gaps."""
        t0 = time.perf_counter()
        job = self.client.submit(spec, fresh=True)["job"]
        first = last = None
        gaps = []
        for event in self.client.events(job):
            if first is None:
                first = time.perf_counter()
            kind, stamp = event.get("event"), event.get("t")
            if kind == "stage_start" and event.get("stage") == "localize":
                last = stamp
            elif kind == "probe":
                if last is not None:
                    gaps.append(stamp - last)
                last = stamp
        answer = self.client.result(job, timeout_s=60.0)
        latency = time.perf_counter() - t0
        return {
            "result": answer["result"], "latency_s": latency,
            "probe_gaps": gaps,
            "queue_wait_s": (first if first is not None else t0) - t0,
        }

    def counters(self) -> dict:
        """Prometheus scrape, summed over labels per metric name."""
        totals: dict = {}
        text = self.client.stats(metrics=True)["metrics_text"]
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def peak_rss_kb(self) -> int:
        """Summed peak RSS (VmHWM) of the daemon and its workers."""
        total, pending = 0, [self.proc.pid]
        while pending:
            pid = pending.pop()
            proc_dir = Path(f"/proc/{pid}")
            try:
                for line in (proc_dir / "status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                for task in (proc_dir / "task").iterdir():
                    pending += [int(c) for c in
                                (task / "children").read_text().split()]
            except OSError:
                continue
        return total

    def stop(self) -> int:
        """Shut the daemon down and wait for its worker too, which can
        outlive it; returns the summed peak RSS (KiB) of daemon and
        worker."""
        rss = self.peak_rss_kb()
        self.client.shutdown()
        reap(self.proc)
        wait_group(self.proc.pid)
        return rss


def stop_all() -> None:
    """Kill what is still running after an error; each daemon's whole
    process group goes with it, and every member is waited for."""
    for pgid in _GROUPS:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except OSError:  # no member left
            pass
    for proc in list(_LIVE):
        if proc.pid not in _GROUPS:  # a plain child
            proc.kill()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        _LIVE.remove(proc)
    for pgid in list(_GROUPS):
        wait_group(pgid)


# -- workloads -------------------------------------------------------------


def passes(specs: list, seed: int, count: int, run_one) -> tuple:
    """Closed loop over ``count`` whole passes, each in an order drawn
    from ``seed``; returns (records, timed wall)."""
    rng = random.Random(seed)
    records: list = []
    t_begin = time.perf_counter()
    for _ in range(count):
        order = list(range(len(specs)))
        rng.shuffle(order)
        for index in order:
            records.append(dict(run_one(specs[index]), index=index))
    return records, time.perf_counter() - t_begin


def n_passes(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the reference pass time.

    The count depends on ``--seconds`` only, never on how fast this
    run goes, so every run does the same work and reports tails at
    the same percentile.
    """
    return max(1, round(seconds / PASS_SECONDS[workload]))


def cold_job(workdir: Path, spec, spans: Path | None = None) -> dict:
    args = ["job"] + (["--spans", str(spans)] if spans else [])
    answer, seconds, rss, spawn_wall = run_child(
        args, spec.to_json() + "\n", workdir / "child.log"
    )
    answer.update(latency_s=seconds, rss_kb=rss, spawn_wall=spawn_wall)
    return answer


def run_cold(args, specs: list, workdir: Path) -> dict:
    ready = []
    for _ in range(5):
        _, seconds, _, _ = run_child(["ready"], "", workdir / "child.log")
        ready.append(seconds)
    setup_s = statistics.median(ready)
    if not args.trace:
        records, wall = passes(specs, args.seed,
                               n_passes(args.workload, args.seconds),
                               lambda spec: cold_job(workdir, spec))
        return {"setup_s": setup_s, "records": records, "timed": records,
                "wall_s": wall, "rss_kb": max(r["rss_kb"] for r in records)}
    order = list(range(len(specs)))
    random.Random(args.seed).shuffle(order)
    records, traced = [], []
    for n, index in enumerate(order):
        # pairs alternate which side runs first
        spans_path = workdir / f"spans-{n}.json"
        if n % 2:
            record = cold_job(workdir, specs[index], spans=spans_path)
        plain = cold_job(workdir, specs[index])
        if not n % 2:
            record = cold_job(workdir, specs[index], spans=spans_path)
        record["spans"] = json.loads(spans_path.read_text())
        record["job_wall_s"] = record["latency_s"]
        record["untraced_wall_s"] = plain["latency_s"]
        record["import_s"] = record["first_call_wall"] - record["spawn_wall"]
        plain["index"] = record["index"] = index
        records += [plain, record]
        traced.append(record)
    return {"setup_s": setup_s, "records": records, "traced": traced}


def run_daemon(args, specs: list, workdir: Path) -> dict:
    ready = []
    for _ in range(2):  # throwaway bring-ups; only the timing is kept
        probe = Daemon(workdir)
        ready.append(probe.ready_s)
        probe.stop()
        shutil.rmtree(workdir / "cache", ignore_errors=True)
    daemon = Daemon(workdir)
    ready.append(daemon.ready_s)
    t0 = time.perf_counter()
    warmup = [dict(daemon.run(spec), index=i) for i, spec in enumerate(specs)]
    setup_s = statistics.median(ready) + time.perf_counter() - t0
    before = daemon.counters()
    if args.trace:
        order = list(range(len(specs)))
        random.Random(args.seed).shuffle(order)
        records = [dict(daemon.run(specs[i]), index=i) for i in order]
        wall = 0.0
    else:
        records, wall = passes(specs, args.seed,
                               n_passes(args.workload, args.seconds),
                               daemon.run)
    after = daemon.counters()
    rss = daemon.stop()
    out = {"setup_s": setup_s, "records": warmup + records,
           "timed": records, "wall_s": wall, "rss_kb": rss,
           "scrape": {k: after.get(k, 0.0) - before.get(k, 0.0)
                      for k in after}}
    if args.trace:
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps([specs[i].to_dict() for i in order]))
        spawn_wall = time.time()
        with open(workdir / "child.log", "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), "warm", "--cache-dir",
                 str(workdir / "cache"), "--jobs", str(jobs_path)],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err,
            )
        _LIVE.append(proc)
        lines = proc.stdout.read().decode().splitlines()
        proc.stdout.close()
        reap(proc)
        if proc.returncode != 0:
            raise BenchError("warm child failed; see child.log")
        answers = [json.loads(line) for line in lines]
        imported = answers.pop(0)["imported"]
        traced = []
        for index, answer in zip(order, answers):
            answer["index"] = index
            answer["job_wall_s"] = answer["wall_s"]
            answer["import_s"] = imported - spawn_wall
            traced.append(answer)
            out["records"].append({"index": index, "result":
                                   answer["untraced_result"]})
            out["records"].append(answer)
        out["traced"] = traced
    return out


# -- correctness -----------------------------------------------------------


def answer_digest(result: dict) -> str:
    """The answer a user acts on: verdicts, candidates, probes, fixes."""
    keys = ("status", "errors", "detected", "localized", "errors_found",
            "fixed", "proved", "candidates", "probe_trajectory",
            "correction", "corrections", "n_rounds", "residual_mismatches")
    blob = json.dumps({k: result.get(k) for k in keys}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def ground_truth(spec) -> list:
    """The errors ``spec`` injects, rebuilt outside the pipeline."""
    from repro.api import load_bundle
    from repro.debug.errors import inject_errors

    bundle = load_bundle(spec)
    errors = inject_errors(
        bundle.packed.netlist, spec.resolved_error_kinds(),
        seed=spec.error_seed, n_errors=spec.n_errors,
    )
    return [{"kind": e.kind, "instance": e.instance, "detail": e.detail}
            for e in errors]


def localized(result: dict, truth: list) -> bool:
    """Detected, and every injected instance among the candidates of
    some round (the final set for a single-round job)."""
    seen = set(result.get("candidates") or ())
    for one in result.get("rounds") or ():
        seen.update(one.get("candidates") or ())
    return bool(result.get("detected")) and all(
        e["instance"] in seen for e in truth)


def check(records: list, specs: list) -> list:
    """Marks each record ``incorrect`` (with a reason) or not, and sets
    its ``localized`` from the ground truth."""
    truth = [ground_truth(spec) for spec in specs]
    digests: dict = {}
    for record in records:
        result, index = record["result"], record["index"]
        reasons = []
        if result.get("errors") != truth[index]:
            reasons.append("errors differ from the injected ground truth")
        record["localized"] = localized(result, truth[index])
        if bool(result.get("localized")) != record["localized"]:
            reasons.append("localized disagrees with the ground truth")
        digest = answer_digest(result)
        if digests.setdefault(index, digest) != digest:
            reasons.append("answer differs from an earlier pass")
        record["incorrect"] = "; ".join(reasons)
    return records


def failed(record: dict) -> bool:
    result = record["result"]
    spec = result.get("spec") or {}
    return bool(
        record["incorrect"]
        or result.get("status") != "ok"
        or (result.get("detected") and not result.get("fixed"))
        or (spec.get("verify") in ("prove", "both")
            and result.get("proved") is not True)
    )


# -- metrics ---------------------------------------------------------------


def tail(values: list) -> tuple:
    """(value, label): the highest percentile with 10 samples beyond it,
    or the maximum when that percentile would not lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10
    if 2 * rank <= n:
        return ordered[-1], f"max of {n} samples (fewer than 21)"
    return ordered[rank - 1], f"p{100 * rank / n:.1f} of {n} samples"


def end_to_end(run: dict) -> tuple:
    """Metrics over the timed records; returns (metrics, notes)."""
    records = run["timed"]
    latencies = [r["latency_s"] for r in records]
    gaps = [g for r in records for g in r["probe_gaps"]] or [0.0]
    detected = [r for r in records if r["result"].get("detected")]
    n_failed = sum(1 for r in records if failed(r))
    correct_jobs = sum(1 for r in records if not r["incorrect"])
    lat_tail, lat_label = tail(latencies)
    gap_tail, gap_label = tail(gaps)
    metrics = {
        "setup_s": run["setup_s"],
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_tail_s": lat_tail,
        "jobs_per_min": correct_jobs / (run["wall_s"] / 60.0),
        "probe_turnaround_p50_s": statistics.median(gaps),
        "probe_turnaround_tail_s": gap_tail,
        "jobs_ok_ratio": 1.0 - n_failed / len(records),
        "jobs_failed_ratio": n_failed / len(records),
        "detected_ratio": len(detected) / len(records),
        "localized_ratio": (
            sum(1 for r in detected if r["localized"]) / len(detected)
            if detected else 0.0),
        "probes_per_job": (
            statistics.mean(r["result"].get("n_probes", 0) for r in detected)
            if detected else 0.0),
        "final_candidates_mean": (
            statistics.mean(len(r["result"].get("candidates") or ())
                            for r in detected)
            if detected else 0.0),
        "peak_rss_mb": run["rss_kb"] / 1024.0,
    }
    notes = {
        "job_latency_tail_s": lat_label,
        "probe_turnaround_tail_s": gap_label,
        "jobs_per_min": f"{correct_jobs} correct jobs in "
                        f"{run['wall_s']:.1f} s",
        "jobs_failed_ratio": "printed only; JSON reports jobs_ok_ratio",
    }
    return metrics, notes


def per_layer(run: dict) -> tuple:
    """Layer metrics from the traced records (per-job means)."""
    from layers import self_by_name

    traced = run["traced"]
    n = len(traced)
    spans = []
    for record in traced:
        offset = len(spans)
        spans += [s[:3] + [s[3] + offset if s[3] >= 0 else -1] + s[4:]
                  for s in record["spans"]]
    own = self_by_name(spans)
    counts: dict = {}
    for record in traced:
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0.0) + value

    def per_job(value: float) -> float:
        return value / n

    def effort(phase: str, key: str) -> float:
        return per_job(sum(r["result"]["effort"][phase][key]
                           for r in traced))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    commits = sum(r["result"]["n_commits"] for r in traced)
    debug_units = sum(r["result"]["effort"]["debug"]["work_units"]
                      for r in traced)
    scrape = run.get("scrape", {})
    timed = run.get("timed", [])
    hits = scrape.get("repro_warm_registry_hits_total", 0.0)
    misses = scrape.get("repro_warm_registry_misses_total", 0.0)
    overhead = ratio(sum(r["job_wall_s"] for r in traced),
                     sum(r["untraced_wall_s"] for r in traced))
    metrics = {
        "generators.build_s": per_job(own.get("generators.build", 0.0)),
        "netlist.instances": per_job(sum(r["instances"] for r in traced)),
        "pnr.initial_s": per_job(own.get("pnr.initial", 0.0)),
        "pnr.initial_place_moves": effort("initial", "place_moves"),
        "pnr.initial_route_expansions": effort("initial", "route_expansions"),
        "pnr.commit_s": per_job(own.get("pnr.commit", 0.0)),
        "pnr.debug_place_moves": effort("debug", "place_moves"),
        "pnr.debug_route_expansions": effort("debug", "route_expansions"),
        "pnr.work_units_per_commit": ratio(debug_units, commits),
        "tiling.prepare_s": per_job(own.get("tiling.prepare", 0.0)),
        "tiling.cache_hit_ratio": ratio(
            counts.get("tiling.hits", 0.0),
            counts.get("tiling.hits", 0.0) + counts.get("tiling.misses", 0.0)),
        "tiling.replay_s": per_job(own.get("tiling.replay", 0.0)),
        "tiling.store_s": per_job(own.get("tiling.store", 0.0)),
        "emu.emulate_s": per_job(own.get("emu.emulate", 0.0)),
        "debug.detect_s": per_job(own.get("debug.detect", 0.0)),
        "netlist.copy_calls": per_job(counts.get("netlist.copy_calls", 0.0)),
        "netlist.copy_s": per_job(own.get("netlist.copy", 0.0)),
        "debug.pick_s": per_job(own.get("debug.pick", 0.0)),
        "debug.correct_s": per_job(own.get("debug.correct", 0.0)),
        "sat.prune_s": per_job(own.get("sat.prune", 0.0)),
        "sat.eliminated_per_prune": ratio(
            counts.get("sat.eliminated", 0.0),
            counts.get("sat.prune_calls", 0.0)),
        "sat.cegis_s": per_job(own.get("sat.cegis", 0.0)),
        "sat.cegis_candidates_tried": per_job(
            counts.get("sat.cegis_calls", 0.0)),
        "sat.cegis_iterations": per_job(
            counts.get("sat.cegis_iterations", 0.0)),
        "sat.prove_s": per_job(own.get("sat.prove", 0.0)),
        "sat.prove_structural_ratio": ratio(
            counts.get("sat.prove_structural", 0.0),
            counts.get("sat.prove_outputs", 0.0)),
        "sat.solve_s": per_job(own.get("sat.solve", 0.0)),
        "sat.solves": per_job(counts.get("sat.solves", 0.0)),
        "sat.conflicts": per_job(sum(r["sat_conflicts"] for r in traced)),
        "service.queue_wait_s": (
            statistics.mean(r["queue_wait_s"] for r in timed)
            if timed else 0.0),
        "service.warm_hit_ratio": ratio(hits, hits + misses),
        "api.import_s": per_job(sum(r["import_s"] for r in traced)),
        "api.unattributed_s": per_job(sum(
            r["wall_s"] - r["attributed_s"] for r in traced)),
        "trace_overhead_pct": 100.0 * (overhead - 1.0),
    }
    covered = ratio(sum(r["attributed_s"] for r in traced),
                    sum(r["wall_s"] for r in traced))
    notes = {
        "api.unattributed_s": f"spans cover {100 * covered:.1f}% of "
                              "in-process job wall",
        "service.queue_wait_s": "daemon submit to first event"
                                if timed else "no daemon in this workload",
    }
    return metrics, notes, spans


def write_trace(workload: str, metrics: dict, notes: dict,
                spans: list) -> Path:
    """Span tree and per-layer table under .perfbench/<workload>/."""
    from layers import span_tree

    target = OUT / workload
    target.mkdir(parents=True, exist_ok=True)
    (target / "spans.json").write_text(json.dumps(
        [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
          "job": s[4]} for s in spans]
    ))
    lines = [f"per-layer metrics: {workload} (per-job means)"]
    lines += [f"  {name:32s} {metrics[name]:14.6f} {unit:6s} "
              f"{notes.get(name, '')}" for name, unit in PER_LAYER]
    lines += ["", "span tree (count, total s, self s):"]
    for row in span_tree(spans):
        depth = row["path"].count("/")
        label = "  " * depth + row["path"].rsplit("/", 1)[-1]
        lines.append(f"  {label:40s} {row['count']:8d} "
                     f"{row['total_s']:12.6f} {row['self_s']:12.6f}")
    (target / "layers.txt").write_text("\n".join(lines) + "\n")
    return target


# -- entry point -----------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_signal(signum, frame):
    if signum == signal.SIGALRM:
        raise BenchError(f"run exceeded {WATCHDOG_S} s")
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(WATCHDOG_S)
    workdir = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        become_subreaper()
        specs = catalog(args.workload)
        if args.workload == "cold_debug":
            run = run_cold(args, specs, workdir)
        else:
            run = run_daemon(args, specs, workdir)
        check(run["records"], specs)
        if args.trace:
            metrics, notes, spans = per_layer(run)
            names = PER_LAYER
            where = write_trace(args.workload, metrics, notes, spans)
            notes["trace"] = f"span tree and table in {where}"
        else:
            metrics, notes = end_to_end(run)
            names = END_TO_END
    except BenchError as exc:
        print(f"error: {exc} (logs kept in {workdir})", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # finish stopping
        os.chdir(ROOT)
        stop_all()
    shutil.rmtree(workdir, ignore_errors=True)

    wrong = [r for r in run["records"] if r["incorrect"]]
    for record in wrong:
        print(f"WRONG ANSWER job {record['index']} "
              f"({record['result'].get('design')}): {record['incorrect']}")
    counted = run["records"] if args.trace else run["timed"]
    print(f"{args.workload}: {len(counted)} jobs, seed {args.seed}, "
          f"trace {args.trace}")
    shown = list(names)
    if not args.trace:
        shown.insert(7, ("jobs_failed_ratio", "ratio"))
    for name, unit in shown:
        print(f"  {name:32s} {metrics[name]:14.6f} {unit:6s} "
              f"{notes.get(name, '')}")
    if "trace" in notes:
        print(f"  {notes['trace']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(counted),
        "failed": sum(1 for r in counted if failed(r)),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
