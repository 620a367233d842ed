"""Supervised worker processes — the child loop and the parent handle.

Every pipeline run that executes outside the calling process runs on a
resident ``python -m repro.service.worker`` child: the daemon's worker
pool (:mod:`repro.service.daemon`) and ``CampaignRunner(executor=
"process")`` both hold :class:`WorkerHandle` objects and call the one
per-job supervision loop, :meth:`WorkerHandle.run_job`.

The protocol is JSONL on stdio.  The parent writes an ``init`` line
(cache dir, heartbeat cadence, warm-registry bound); the child builds
its :class:`~repro.service.warm.WarmRegistry`, reports ``ready``, beats
a ``heartbeat`` line every ``heartbeat_interval_s`` seconds, and serves
``job`` lines until stdin closes.  Per job it streams stage/probe/
commit (and, traced, span) events tagged with the job id, then exactly
one ``result`` event — the :class:`~repro.api.result.RunResult`, the
run's tile-cache counter delta, warm-hit telemetry and the per-job
metrics *delta* — or a ``job_error`` when the job fails at the
protocol level.  Everything warm — fabric tables, cone bitsets, the
golden model's compiled kernel, the tile-config cache — lives and
accumulates in the child; warm state never changes an answer.

The parent enforces what no cooperative check can: a hard wall-clock
ceiling per job (:func:`hard_timeout_for`), a lost-heartbeat watchdog
(a wedged or SIGSTOPped child), and an optional external stop (campaign
Ctrl-C), each ended by SIGKILL and a reap.  Every way a job can end
without a result — death by signal or exit, hard timeout, lost
heartbeat, stop, protocol breakdown — folds into a structured
:class:`~repro.resilience.failure.RunFailure` with stage
:data:`~repro.resilience.failure.WORKER_STAGE`.  Re-dispatch after a
death is the caller's policy (the daemon re-queues; campaigns never
do); the handle only respawns its child on the next job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque

from repro.api.result import RunResult
from repro.api.spec import RunSpec
from repro.obs.metrics import METRICS
from repro.obs.trace import Tracer
from repro.resilience.chaos import WORKER_ENV
from repro.resilience.failure import WORKER_STAGE, RunFailure

#: default seconds between child heartbeat events on stdout; the value
#: rides to the child in the ``init`` line, so both sides agree
HEARTBEAT_INTERVAL_S = 0.25
#: default seconds of event silence before the child is declared wedged
#: (the watchdog grace; must comfortably exceed the heartbeat interval)
DEFAULT_HEARTBEAT_TIMEOUT_S = 15.0
#: hard ceiling = cooperative ``timeout_s`` x factor + slack — generous
#: enough that the child's own graceful timeout path always wins when
#: it is able to run at all
HARD_TIMEOUT_FACTOR = 3.0
HARD_TIMEOUT_SLACK_S = 10.0
#: the error name of a hard-ceiling kill — the one failure that settles
#: as ``status="timeout"`` rather than ``"failed"``
HARD_TIMEOUT_ERROR = "WorkerHardTimeout"
#: seconds a fresh child gets to import, warm its registry and report
#: ``ready``
_READY_TIMEOUT_S = 120.0
#: stderr lines retained for crash diagnostics
_STDERR_TAIL_LINES = 20
#: supervision poll period
_POLL_S = 0.05


def hard_timeout_for(spec: RunSpec,
                     hard_timeout_s: float | None = None) -> float | None:
    """The wall-clock ceiling after which a job's child is killed."""
    if hard_timeout_s is not None:
        return float(hard_timeout_s)
    if spec.timeout_s is not None:
        return spec.timeout_s * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_SLACK_S
    return None


def worker_env() -> dict:
    """Child environment: importable ``repro`` + the worker marker."""
    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_root if not existing
        else pkg_root + os.pathsep + existing
    )
    env[WORKER_ENV] = "1"
    return env


def kill_process(proc: subprocess.Popen) -> None:
    """SIGKILL the child and reap it (no mercy, no zombies)."""
    try:
        proc.kill()
    except OSError:
        pass
    try:
        proc.wait(timeout=5.0)
    except Exception:
        pass


def _failure(error: str, message: str, elapsed_s: float) -> RunFailure:
    return RunFailure(
        stage=WORKER_STAGE, error=error, message=message,
        elapsed_s=round(elapsed_s, 6),
    )


def result_of(spec: RunSpec, outcome: dict | RunFailure) -> RunResult:
    """The :class:`RunResult` for one :meth:`WorkerHandle.run_job` outcome.

    A result event deserializes verbatim; a failure becomes a
    spec-complete ``failed`` (hard timeout: ``timeout``) result whose
    single failure record carries stage ``"worker"``.
    """
    if isinstance(outcome, dict):
        try:
            return RunResult.from_dict(outcome["result"])
        except (KeyError, TypeError, ValueError) as exc:
            outcome = _failure(
                "WorkerProtocolError",
                f"worker result did not deserialize: {exc}", 0.0,
            )
    status = "timeout" if outcome.error == HARD_TIMEOUT_ERROR else "failed"
    return RunResult.worker_failure(
        spec, outcome, status=status, wall_seconds=outcome.elapsed_s
    )


# -- child side --------------------------------------------------------


def _emit(payload: dict, lock: threading.Lock) -> None:
    with lock:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()


def _heartbeat_loop(lock: threading.Lock, stop: threading.Event,
                    interval_s: float) -> None:
    while not stop.wait(interval_s):
        try:
            _emit({"event": "heartbeat"}, lock)
        except (BrokenPipeError, OSError):
            return  # the parent is gone; the kill follows shortly


class _EventHooks:
    """PipelineHooks → JSONL lines tagged with the job id."""

    def __init__(self, job: str, lock: threading.Lock) -> None:
        self.job = job
        self.lock = lock

    def _send(self, payload: dict) -> None:
        payload["job"] = self.job
        payload["t"] = round(time.time(), 3)
        try:
            _emit(payload, self.lock)
        except (TypeError, ValueError):
            pass  # an unserializable event must never fail the run

    def on_stage_start(self, stage, ctx) -> None:
        self._send({"event": "stage_start", "stage": stage.name})

    def on_stage_end(self, stage, ctx, seconds: float) -> None:
        self._send({
            "event": "stage_end", "stage": stage.name,
            "seconds": round(seconds, 6),
        })

    def on_probe(self, ctx, step) -> None:
        self._send({
            "event": "probe",
            "instance": getattr(step, "probe_instance", None),
            "mismatch": getattr(step, "mismatch", None),
            "candidates_before": getattr(step, "candidates_before", None),
            "candidates_after": getattr(step, "candidates_after", None),
        })

    def on_commit(self, ctx, record) -> None:
        effort = getattr(record, "effort", None)
        self._send({
            "event": "commit",
            "description": getattr(record, "description", None),
            "work_units": round(effort.work_units, 3)
            if effort is not None else None,
        })

    def span_listener(self, phase: str, span) -> None:
        """Tracer listener → ``span_start``/``span_end`` event lines.

        Zero-duration instants (commits, cache points) arrive as
        ``span_point``.  Rides the same per-job stream the stage
        events use, so a ``trace: true`` submit sees the full span
        hierarchy live through the daemon's ``events`` verb.
        """
        kind = {"start": "span_start", "instant": "span_point"}
        payload = {
            "event": kind.get(phase, "span_end"),
            "name": span.name,
            "category": span.category,
        }
        if phase != "start":
            payload["status"] = span.status
            payload["seconds"] = round(span.duration_s, 6)
            if span.attrs:
                payload["attrs"] = dict(span.attrs)
        self._send(payload)


def serve_jobs(stdin=None) -> int:
    """The worker loop: init line, ``ready``, then jobs until EOF."""
    from repro.api.pipeline import run_spec
    from repro.netlist.cones import set_active_cone_memo
    from repro.service.warm import WarmRegistry, warm_key
    from repro.tiling.cache import stats_delta

    stdin = stdin if stdin is not None else sys.stdin
    lock = threading.Lock()
    stop = threading.Event()

    init_line = stdin.readline()
    if not init_line:
        return 0
    try:
        init = json.loads(init_line)
        if init.get("op") != "init":
            raise ValueError(f"expected init, got {init.get('op')!r}")
        interval_s = float(
            init.get("heartbeat_interval_s") or HEARTBEAT_INTERVAL_S
        )
        registry = WarmRegistry(
            cache_dir=init.get("cache_dir"),
            max_entries=int(init.get("warm_max_entries") or 8),
        )
    except BaseException as exc:  # noqa: BLE001 — report, don't crash
        _emit({
            "event": "error",
            "failure": RunFailure.from_exception(
                exc, stage=WORKER_STAGE
            ).to_dict(),
        }, lock)
        return 1
    set_active_cone_memo(registry.cone_memo)
    beat = threading.Thread(
        target=_heartbeat_loop, args=(lock, stop, interval_s), daemon=True
    )
    beat.start()
    started = time.perf_counter()  # monotonic: uptime is a duration
    _emit({"event": "ready", "pid": os.getpid()}, lock)

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        job_id = None
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "stop":
                break
            if op != "job":
                raise ValueError(f"unknown worker op {op!r}")
            job_id = request.get("job")
            spec = RunSpec.from_dict(request["spec"])
            was_warm = registry.would_hit(spec)
            hooks = _EventHooks(job_id, lock)
            tracer = (
                Tracer(listener=hooks.span_listener)
                if request.get("trace") else None
            )
            cache = registry.cache_for(spec)
            cache_before = cache.stats() if cache is not None else None
            metrics_before = METRICS.snapshot()
            t0 = time.perf_counter()
            result = run_spec(
                spec, hooks=hooks, tile_cache=cache, warm=registry,
                tracer=tracer,
            )
            if cache_before is not None:
                result.cache = stats_delta(cache_before, cache.stats())
            written = registry.write_back()
            _emit({
                "event": "result",
                "job": job_id,
                "result": result.to_dict(),
                "warm": {
                    "hit": was_warm,
                    "key": list(warm_key(spec)),
                    "service_seconds": round(time.perf_counter() - t0, 6),
                    "configs_written": written,
                },
                # per-job *delta*, not a whole-process snapshot: the
                # worker is long-lived, so shipping totals would double-
                # count every earlier job when the parent merges
                "metrics": METRICS.delta(metrics_before),
            }, lock)
        except BaseException as exc:  # noqa: BLE001
            if isinstance(exc, KeyboardInterrupt):
                break
            _emit({
                "event": "job_error",
                "job": job_id,
                "failure": RunFailure.from_exception(
                    exc, stage=WORKER_STAGE
                ).to_dict(),
            }, lock)
    stop.set()
    _emit({
        "event": "bye",
        "uptime_s": round(time.perf_counter() - started, 3),
        "warm": registry.stats(),
    }, lock)
    return 0


# -- parent side -------------------------------------------------------


class WorkerHandle:
    """One resident worker process, its liveness clock and its jobs."""

    def __init__(self, index: int = 0, cache_dir: str | None = None,
                 heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
                 warm_max_entries: int = 8) -> None:
        self.index = index
        self.cache_dir = cache_dir
        self.heartbeat_interval_s = heartbeat_interval_s
        self.warm_max_entries = warm_max_entries
        self.proc: subprocess.Popen | None = None
        self.lock = threading.Lock()
        self.last_event = time.monotonic()
        self.ready = threading.Event()
        self.job_done = threading.Event()
        self.job_result: dict | None = None
        self.current_job: str | None = None
        #: where the current job's streamed events go (None: dropped)
        self._sink = None
        self.started_at: float | None = None
        self.jobs_done = 0
        self.deaths = 0
        self.closed = False
        self.stderr_tail: deque = deque(maxlen=_STDERR_TAIL_LINES)

    # -- lifecycle -----------------------------------------------------

    def spawn(self) -> None:
        """Start the child, unless the handle is closed for good."""
        with self.lock:
            # under the lock, so a concurrent close() either sees this
            # child (and reaps it) or this spawn sees the close
            if self.closed:
                return
            self.ready.clear()
            self.stderr_tail.clear()
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.service.worker"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=worker_env(),
                text=True,
            )
        self.started_at = time.monotonic()  # uptime is a duration
        self.last_event = time.monotonic()
        proc = self.proc
        threading.Thread(target=self._read_events, args=(proc,),
                         daemon=True).start()
        threading.Thread(target=self._read_stderr, args=(proc,),
                         daemon=True).start()
        self._send({
            "op": "init",
            "cache_dir": self.cache_dir,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "warm_max_entries": self.warm_max_entries,
        })

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        if self.proc is not None:
            kill_process(self.proc)

    def stop(self) -> None:
        """Polite stop: stop line + EOF; the worker finishes its job."""
        if self.proc is None:
            return
        try:
            self.proc.stdin.write(json.dumps({"op": "stop"}) + "\n")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError, ValueError):
            pass

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop politely, wait up to ``timeout_s``, then kill + reap.

        The handle never spawns again: a job racing the close fails
        instead of leaving an unowned child behind.
        """
        with self.lock:
            self.closed = True
        if self.proc is None:
            return
        self.stop()
        try:
            self.proc.wait(timeout=max(timeout_s, 0.0))
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    # -- I/O -----------------------------------------------------------

    def _send(self, payload: dict) -> bool:
        try:
            self.proc.stdin.write(json.dumps(payload) + "\n")
            self.proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False

    def _read_events(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            self.last_event = time.monotonic()
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict):
                continue
            kind = event.get("event")
            if kind == "heartbeat":
                continue
            if kind == "ready":
                self.ready.set()
                continue
            with self.lock:
                if event.get("job") is None or \
                        event["job"] != self.current_job:
                    continue
                if kind in ("result", "job_error"):
                    self.job_result = event
                    self.job_done.set()
                    continue
                sink = self._sink
            if sink is not None:
                sink(event)  # stage/probe/commit/span, as they happen

    def _read_stderr(self, proc: subprocess.Popen) -> None:
        for line in proc.stderr:
            self.stderr_tail.append(line.rstrip("\n"))

    def silent_for(self) -> float:
        return time.monotonic() - self.last_event

    def uptime_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return time.monotonic() - self.started_at

    def _death_failure(self, elapsed: float) -> RunFailure:
        """Why the child is gone: the signal or exit code + stderr."""
        rc = self.proc.returncode if self.proc is not None else None
        if rc is not None and rc < 0:
            try:
                signame = signal.Signals(-rc).name
            except ValueError:
                signame = f"signal {-rc}"
            detail = f"worker {self.index} killed by {signame}"
            if -rc == signal.SIGKILL:
                detail += " (chaos worker_kill, OOM-kill, or supervisor)"
        else:
            detail = f"worker {self.index} exited with code {rc}"
        tail = "\n".join(self.stderr_tail).strip()
        if tail:
            detail += f"; stderr tail: {tail[-500:]}"
        return _failure("WorkerCrashed", detail, elapsed)

    # -- one job -------------------------------------------------------

    def run_job(
        self,
        spec: RunSpec,
        job: str | None = None,
        trace: bool = False,
        hard_timeout_s: float | None = None,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        on_event=None,
        stop: threading.Event | None = None,
    ) -> dict | RunFailure:
        """Run ``spec`` on this worker; the result event or a failure.

        Spawns the child first if it is not running.  Streams the job's
        events to ``on_event`` as they arrive and watches for four
        endings besides the result: the child's death, the hard
        wall-clock ceiling (``hard_timeout_s``, default derived from
        ``spec.timeout_s``), heartbeat silence beyond
        ``heartbeat_timeout_s``, and ``stop`` being set.  Each kills and
        reaps the child and returns a stage-``"worker"``
        :class:`RunFailure` (a hard-timeout kill carries
        :data:`HARD_TIMEOUT_ERROR`).  A ``job_error`` event comes back
        as its failure with the child still alive.  The result event's
        metrics delta is merged into this process's registry.
        KeyboardInterrupt kills the child and propagates.
        """
        job = job if job is not None else spec.digest()
        t0 = time.perf_counter()
        try:
            failure = self._await_ready(t0, stop)
            if failure is not None:
                return failure
            with self.lock:
                self.current_job = job
                self.job_result = None
                self.job_done.clear()
                self._sink = on_event
            self.last_event = time.monotonic()
            t0 = time.perf_counter()
            ceiling = hard_timeout_for(spec, hard_timeout_s)
            sent = self._send({
                "op": "job", "job": job, "spec": spec.to_dict(),
                "trace": trace,
            })
            failure = self._watch(
                t0, ceiling, heartbeat_timeout_s, stop, sent
            )
        except KeyboardInterrupt:
            self.kill()
            raise
        finally:
            with self.lock:
                event = self.job_result
                self.current_job = None
                self._sink = None
        if failure is not None:
            return failure
        if event.get("event") == "result":
            self.jobs_done += 1
            # deltas never double-count, whichever parent merges them
            METRICS.merge(event.get("metrics"))
            return event
        # job_error: the worker survived, the job did not
        try:
            failure = RunFailure.from_dict(event.get("failure"))
        except (TypeError, ValueError):
            failure = _failure(
                "WorkerProtocolError", "worker job_error did not "
                "deserialize", time.perf_counter() - t0,
            )
        if not failure.stage:
            failure.stage = WORKER_STAGE
        return failure

    def _await_ready(self, t0: float,
                     stop: threading.Event | None) -> RunFailure | None:
        if stop is not None and stop.is_set():
            return _failure("WorkerInterrupted",
                            "campaign stop requested before dispatch", 0.0)
        if not self.alive():
            self.spawn()
            if self.closed:
                return _failure("WorkerInterrupted",
                                f"worker {self.index} is closed", 0.0)
        while not self.ready.wait(timeout=_POLL_S):
            elapsed = time.perf_counter() - t0
            if stop is not None and stop.is_set():
                self.kill()
                return _failure("WorkerInterrupted",
                                "campaign stop requested; worker killed",
                                elapsed)
            if not self.alive():
                return self._death_failure(elapsed)
            if elapsed > _READY_TIMEOUT_S:
                self.kill()
                return _failure(
                    "WorkerNotReady",
                    f"worker {self.index} never reported ready", elapsed,
                )
        return None

    def _watch(self, t0: float, ceiling: float | None,
               heartbeat_timeout_s: float,
               stop: threading.Event | None,
               sent: bool) -> RunFailure | None:
        """Wait for the job's end; None once its event has arrived."""
        while not self.job_done.wait(timeout=_POLL_S):
            elapsed = time.perf_counter() - t0
            if not sent or not self.alive():
                # grace period: the result line may still be in flight
                if self.job_done.wait(timeout=1.0):
                    return None
                self.kill()  # reap a child whose pipe broke
                return self._death_failure(elapsed)
            if stop is not None and stop.is_set():
                self.kill()
                return _failure("WorkerInterrupted",
                                "campaign stop requested; worker killed",
                                elapsed)
            if ceiling is not None and elapsed > ceiling:
                self.kill()
                return _failure(
                    HARD_TIMEOUT_ERROR,
                    f"job exceeded hard wall-clock limit {ceiling:.1f}s "
                    f"on worker {self.index}; killed", elapsed,
                )
            if self.silent_for() > heartbeat_timeout_s:
                self.kill()
                return _failure(
                    "WorkerHeartbeatLost",
                    f"no worker event for {heartbeat_timeout_s:.1f}s "
                    "(hung or stopped); killed", elapsed,
                )
        return None

    def stats(self) -> dict:
        return {
            "worker": self.index,
            "pid": self.proc.pid if self.proc else None,
            "alive": self.alive(),
            "ready": self.ready.is_set(),
            "uptime_s": round(self.uptime_s(), 3),
            "jobs_done": self.jobs_done,
            "deaths": self.deaths,
            "current_job": self.current_job,
        }


if __name__ == "__main__":
    sys.exit(serve_jobs())
