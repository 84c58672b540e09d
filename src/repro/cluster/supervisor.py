"""Worker lifecycle: spawn, health-check, respawn, drain.

The :class:`WorkerSupervisor` owns N engine worker processes (see
:mod:`repro.cluster.worker`).  Each worker occupies a stable *slot*
("w0" … "wN-1") — the unit the front door routes to — so a respawned
process inherits its predecessor's rendezvous key range and re-warms
the same cache working set.

The generic process plumbing — spawn context, ready handshake, monitor
thread, crash-loop backoff, drain — lives in
:class:`repro.cluster.fleet.ProcessFleet`, which the distributed
campaign tier (:mod:`repro.dist`) reuses for its lease-claiming
workers.  This subclass contributes only what is serving-specific: the
:func:`~repro.cluster.worker.worker_main` payload, per-slot engine
kwargs/environment, and an integer-port ready handshake.

Lifecycle contract:

- :meth:`start` spawns every slot concurrently and blocks until each
  worker's ``("ready", port)`` handshake, so a started supervisor is a
  servable supervisor;
- a monitor thread polls liveness every ``health_interval`` seconds and
  respawns dead slots; while a slot is down :meth:`alive` reports it
  dead, which the front door folds into routing (keys fail over to
  survivors) and ``/healthz`` (``degraded`` until the respawn lands).
  A slot that keeps dying young backs off exponentially and is left
  degraded past the crash-loop cap (see :mod:`repro.cluster.fleet`);
- :meth:`stop` drains: SIGTERM to every worker (finish in-flight work,
  then exit), bounded join, SIGKILL stragglers.

Chaos hook: the monitor thread applies the fault target ``worker``
(:mod:`repro.faults.injection`) once per tick while any worker is
live.  An armed ``error:worker[:times]`` directive therefore SIGKILLs
one live worker per firing — *from the supervisor process*, so the
``times`` budget is spent exactly once per fleet instead of once per
inherited child environment, and respawned workers do not crash-loop
on a stale budget.
"""

from __future__ import annotations

import os

from repro.cluster.fleet import ClusterError, ProcessFleet, WorkerHandle
from repro.cluster.worker import worker_main
from repro.faults.injection import FaultPlan
from repro.obs.metrics import MetricsRegistry

__all__ = ["ClusterError", "WorkerHandle", "WorkerSupervisor"]


class WorkerSupervisor(ProcessFleet):
    """Spawns, health-checks, respawns and drains engine workers.

    Parameters
    ----------
    artifact_dir:
        The exported system every worker opens with ``mmap=True``.
    n_workers:
        Fleet size; slots are named ``w0`` … ``w{n-1}``.
    engine_kwargs:
        Forwarded to each worker's :class:`~repro.serve.engine.
        ScoringEngine` (batch window, deadline, cache size, …).
    worker_env:
        Optional per-slot environment overrides,
        ``{"w1": {"REPRO_FAULTS": "stall:HU:5"}}`` — applied in the
        child before the serve stack imports, so chaos plans can target
        exactly one worker.
    health_interval:
        Monitor poll period in seconds.
    spawn_timeout:
        How long one worker may take to reach its ready handshake.
    faults:
        Supervisor-side fault plan (default: parsed from
        ``REPRO_FAULTS``); only the ``worker`` target is applied here.
    """

    def __init__(
        self,
        artifact_dir: str | os.PathLike,
        n_workers: int,
        *,
        host: str = "127.0.0.1",
        engine_kwargs: dict | None = None,
        worker_env: dict[str, dict] | None = None,
        health_interval: float = 0.25,
        spawn_timeout: float = 120.0,
        faults: FaultPlan | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.artifact_dir = str(artifact_dir)
        self.host = host
        self.engine_kwargs = dict(engine_kwargs or {})
        self.worker_env = {
            slot: dict(env) for slot, env in (worker_env or {}).items()
        }
        super().__init__(
            n_workers,
            target=worker_main,
            make_args=self._worker_args,
            name_prefix="repro-cluster",
            health_interval=health_interval,
            spawn_timeout=spawn_timeout,
            faults=faults,
            fault_target="worker",
            registry=registry,
            metrics_prefix="cluster",
            respawn=True,
        )

    def _worker_args(self, slot: str, child_conn) -> tuple:
        return (
            self.artifact_dir,
            self.host,
            child_conn,
            self.engine_kwargs,
            self.worker_env.get(slot),
        )

    def _coerce_ready(self, payload) -> int:
        return int(payload)
