"""repro.service — warm-start debug-as-a-service daemon.

The paper's pitch is fast turnaround: precomputed spare configurations
make the *next* debug iteration cheap.  This package extends that idea
from tile configs to every per-process artifact a cold ``run_spec``
pays for — compiled emulation kernels, ``_Fabric`` routing tables,
:class:`~repro.netlist.cones.ConeIndex` bitsets, the open
:class:`~repro.tiling.cache.TileConfigStore` — by keeping a pool of
long-lived worker processes resident behind a unix-socket daemon.

Layout:

* :mod:`repro.service.warm` — per-worker warm-state registry
  (LRU-bounded, invalidation by design digest / device / preset).
* :mod:`repro.service.queue` — priority job queue with digest dedup
  and a crash-safe persistent spool.
* :mod:`repro.service.protocol` — newline-delimited JSON framing and
  verb shapes shared by daemon and client.
* :mod:`repro.service.worker` — the supervised worker process
  (``python -m repro.service.worker``) and :class:`WorkerHandle`, its
  per-job supervision loop, shared with process-executor campaigns.
* :mod:`repro.service.daemon` — the socket server + worker pool
  (``python -m repro serve``).
* :mod:`repro.service.client` — :class:`Client` python API backing
  ``python -m repro client``.

Warm state is a cache, never a semantic input: results are bit-identical
to a cold in-process :func:`~repro.api.pipeline.run_spec` on the same
spec (modulo timings and attempt metadata), which the service test
suite asserts field-for-field.
"""

import importlib

#: public name → defining module.  Resolved on first access, so that
#: ``python -m repro.service.worker`` does not import the worker module
#: a second time through the daemon before running it as ``__main__``.
_EXPORTS = {
    "Client": "repro.service.client",
    "ReproService": "repro.service.daemon",
    "ServiceConfig": "repro.service.daemon",
    "WarmRegistry": "repro.service.warm",
    "design_digest": "repro.service.warm",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(importlib.import_module(module), name)
