"""Deterministic, config-driven fault injection.

The :class:`FaultInjector` is the backbone of the reliability test harness
(``tests/reliability/``): armed with one or more :class:`FaultSpec`\\ s it
forces a typed exception, an injected timeout, or an empty result at any
named stage boundary — deterministically, with no randomness, so every
failure a test provokes is exactly reproducible.

It is *off by default*: ``PipelineConfig.fault_injector`` is ``None`` in
production configurations, and an injector with no armed specs is inert.
The pipeline calls :meth:`FaultInjector.check` at each stage boundary
**before** the stage touches any shared cache, which is what guarantees
the cache-consistency-after-fault contract (a faulted run never writes a
poisoned entry; see ``docs/reliability.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.reliability.errors import Stage, StageTimeout, error_for

#: The supported fault kinds.
FAULT_KINDS: tuple[str, ...] = ("error", "timeout", "empty", "slow")

#: Injected latency of a ``slow`` fault when the spec does not set one.
DEFAULT_SLOW_MS = 50.0


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    * ``stage`` — a :data:`repro.reliability.errors.STAGES` name;
    * ``kind`` — ``"error"`` (raise the stage's taxonomy class),
      ``"timeout"`` (raise :class:`StageTimeout`), ``"empty"`` (the
      stage behaves as if it produced nothing), or ``"slow"`` (the stage
      runs normally after an injected delay — the chaos harness's
      wedged-backend simulation; answers are unchanged);
    * ``match`` — only fire for questions containing this substring
      (``None`` fires for every question);
    * ``times`` — fire at most this many times (``None`` = every time);
    * ``delay_ms`` — injected latency for ``slow`` faults
      (:data:`DEFAULT_SLOW_MS` when ``None``; ignored by other kinds).
    """

    stage: str
    kind: str = "error"
    match: str | None = None
    times: int | None = None
    delay_ms: float | None = None

    def __post_init__(self) -> None:
        Stage(self.stage)  # validates the stage name
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI syntax ``stage:kind[:match]``.

        >>> FaultSpec.parse("execute:timeout")
        FaultSpec(stage='execute', kind='timeout', match=None, times=None, delay_ms=None)
        """
        parts = text.split(":", 2)
        if len(parts) < 2:
            raise ValueError(f"expected 'stage:kind[:match]', got {text!r}")
        stage, kind = parts[0], parts[1]
        match = parts[2] if len(parts) == 3 else None
        return cls(stage=stage, kind=kind, match=match)


class FaultInjector:
    """Fires armed faults at stage boundaries; thread-safe and inert when
    disarmed.  One injector may be shared by every serving worker thread
    — the remaining-fires countdown is taken under a lock."""

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()) -> None:
        self._lock = threading.Lock()
        self._specs: list[FaultSpec] = []
        self._remaining: list[int | None] = []
        self._fired: dict[tuple[str, str], int] = {}
        for spec in specs:
            self.arm(spec)

    def arm(self, spec: FaultSpec) -> None:
        """Add one fault plan (takes effect immediately)."""
        with self._lock:
            self._specs.append(spec)
            self._remaining.append(spec.times)

    def disarm(self) -> None:
        """Remove every armed spec; fired-counts are kept for inspection."""
        with self._lock:
            self._specs.clear()
            self._remaining.clear()

    @property
    def armed(self) -> bool:
        with self._lock:
            return bool(self._specs)

    def fired(self, stage: str, kind: str) -> int:
        """How many times a (stage, kind) fault has actually fired."""
        with self._lock:
            return self._fired.get((stage, kind), 0)

    # ------------------------------------------------------------------

    def check(self, stage: Stage | str, question: str | None = None) -> bool:
        """Fire any armed fault matching this stage boundary.

        Returns ``True`` when an ``empty`` fault fired (the caller must
        behave as if the stage produced nothing); raises the matching
        typed error for ``error``/``timeout`` faults; sleeps and returns
        ``False`` for ``slow`` faults (the stage then runs normally);
        returns ``False`` when nothing fired.
        """
        stage_name = stage.value if isinstance(stage, Stage) else stage
        spec = self._claim(stage_name, question)
        if spec is None:
            return False
        if spec.kind == "slow":
            delay = spec.delay_ms if spec.delay_ms is not None else DEFAULT_SLOW_MS
            time.sleep(delay / 1000.0)
            return False
        if spec.kind == "empty":
            return True
        if spec.kind == "timeout":
            raise StageTimeout(stage_name, "injected timeout")
        raise error_for(stage_name)("injected fault")

    def _claim(self, stage_name: str, question: str | None) -> FaultSpec | None:
        """Find the first matching spec and consume one firing of it."""
        with self._lock:
            for index, spec in enumerate(self._specs):
                if spec.stage != stage_name:
                    continue
                if spec.match is not None and (
                    question is None or spec.match not in question
                ):
                    continue
                remaining = self._remaining[index]
                if remaining is not None:
                    if remaining <= 0:
                        continue
                    self._remaining[index] = remaining - 1
                key = (stage_name, spec.kind)
                self._fired[key] = self._fired.get(key, 0) + 1
                return spec
        return None
