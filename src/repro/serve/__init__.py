"""The resilient serving layer (docs/reliability.md "Serving & overload
behavior").

:class:`ResilientServer` turns the batch-oriented
:class:`repro.core.system.QuestionAnsweringSystem` into a long-lived
concurrent service with explicit overload behavior:

* **admission control** — the one concurrency limiter: a bounded request
  queue; a full queue sheds the request with a typed :class:`Overloaded`
  failure (``reject`` policy) or re-routes it onto a small tight-budget
  lane (``degrade`` policy), and a request whose deadline expired while
  queued is shed when dequeued;
* **circuit breakers** — per-stage failure breakers with half-open
  probing (:class:`~repro.serve.guard.StageGuard`), so a failing stage
  fails fast instead of being attempted again and again;
* **crash-safe warm state** — versioned, checksummed snapshots of the warm
  caches (:mod:`repro.serve.snapshot`) so a restarted server skips the
  cold-start cliff;
* **chaos/soak harness** — :func:`repro.serve.soak.run_soak` drives the
  server under concurrent fault schedules and asserts the serving
  invariants (every request resolves, typed failures only, no state bleed).
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.errors import Overloaded, ServeError, ServerClosed, SnapshotError
from repro.serve.guard import GUARDED_STAGES, StageGuard
from repro.serve.server import ResilientServer, ServerConfig
from repro.serve.snapshot import SNAPSHOT_SCHEMA, load_snapshot, save_snapshot
from repro.serve.soak import SoakReport, run_soak

__all__ = [
    "ResilientServer",
    "ServerConfig",
    "CircuitBreaker",
    "StageGuard",
    "GUARDED_STAGES",
    "ServeError",
    "Overloaded",
    "ServerClosed",
    "SnapshotError",
    "SNAPSHOT_SCHEMA",
    "save_snapshot",
    "load_snapshot",
    "SoakReport",
    "run_soak",
]
