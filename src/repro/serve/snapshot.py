"""Crash-safe warm-state snapshots (``repro.snapshot/v1``).

A restarted server pays the cold-start cliff: an empty result cache and
an empty similarity memo.  This module persists those warm caches so a
restart resumes near its pre-crash hit rate.

**File format** — one file, two parts:

* line 1: a JSON header (UTF-8, newline-terminated) carrying the schema
  identifier, a SHA-256 checksum + byte length of the payload, the
  knowledge-base fingerprint (triple count + graph generation) the state
  was captured against, and the restore-side entry counts;
* the rest: a pickle of ``QuestionAnsweringSystem.export_warm_state()``.

Compiled query plans are never serialised: the engine keeps none.  A
snapshot written before that still carries plan keys (header count
``plan_keys``) and per-property scores; a restore does not read them.
Result-cache entries are only valid for the exact graph they were
computed on, which is what the fingerprint enforces: any
mismatch (mutation bumped the generation, different KB entirely) rejects
the snapshot with a typed :class:`~repro.serve.errors.SnapshotError` and
leaves the caches cold — a safe, merely slower, start.

**Crash safety** — the snapshot is written to a temp file in the target
directory and moved into place with ``os.replace``: readers see either the
old complete file or the new complete file, never a torn write.  A crash
*during* a write leaves a stray ``.tmp`` file and an intact previous
snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile

from repro.serve.errors import SnapshotError

#: Schema identifier stamped into (and required of) every snapshot header.
SNAPSHOT_SCHEMA = "repro.snapshot/v1"


def kb_fingerprint(system) -> dict:
    """The identity of the storage a warm state is valid against.

    Combines the graph-level counts with the storage backend's own
    :meth:`~repro.kb.backend.KBBackend.fingerprint` — for segment sets
    that is the content hash of every shard's checksum, so a snapshot
    taken over one segment directory never restores over different (or
    rebuilt) segments even when the triple counts happen to agree.
    """
    graph = system.kb.graph
    fingerprint: dict = {
        "triples": len(graph),
        "generation": graph.generation,
    }
    backend = getattr(system.kb, "backend", None)
    if backend is not None:
        fingerprint["backend"] = backend.fingerprint()
    return fingerprint


def save_snapshot(system, path: str | os.PathLike) -> dict:
    """Write the system's warm caches to ``path`` atomically.

    Returns the header dict (schema, checksum, fingerprint, counts).
    """
    state = system.export_warm_state()
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "schema": SNAPSHOT_SCHEMA,
        "checksum": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "kb": kb_fingerprint(system),
        "counts": {
            "results": len(state["engine"]["results"]),
            "mapper_memos": sum(
                len(entries) for entries in state["mapper"].values()
            ),
        },
    }
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    system.stats.inc("snapshot.saved")
    return header


def load_snapshot(system, path: str | os.PathLike) -> dict[str, int]:
    """Validate and restore a snapshot into the system's caches.

    Returns the restore counts (``results`` / ``mapper_memos``).  Raises
    :class:`SnapshotError` — after bumping the ``snapshot.rejected``
    counter — on any validation failure; the caches are untouched in that
    case (validation happens before any ``put``).
    """
    try:
        with open(os.fspath(path), "rb") as handle:
            header_line = handle.readline()
            payload = handle.read()
    except OSError as error:
        return _reject(system, f"unreadable snapshot: {error}")

    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return _reject(system, f"corrupt snapshot header: {error}")

    if header.get("schema") != SNAPSHOT_SCHEMA:
        return _reject(
            system,
            f"unknown snapshot schema {header.get('schema')!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})",
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("checksum") or len(payload) != header.get(
        "payload_bytes"
    ):
        return _reject(system, "snapshot payload failed checksum validation")
    fingerprint = kb_fingerprint(system)
    if header.get("kb") != fingerprint:
        return _reject(
            system,
            f"snapshot was captured against KB {header.get('kb')}, "
            f"running KB is {fingerprint}",
        )

    try:
        state = pickle.loads(payload)
        counts = system.restore_warm_state(state)
    except SnapshotError:
        raise
    except Exception as error:  # torn/garbage payload that passed checksum
        return _reject(system, f"snapshot restore failed: {error}")
    system.stats.inc("snapshot.restored")
    return counts


def _reject(system, reason: str) -> "dict[str, int]":
    system.stats.inc("snapshot.rejected")
    raise SnapshotError(reason)
