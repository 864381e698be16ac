"""Export the mined pattern resource (PATTY-release-style artefacts).

The real PATTY was distributed as flat files of typed patterns with
support and confidence.  This module writes the mined store in the same
spirit — a TSV of patterns and a JSON document with the word->property
frequency index — and reads them back, so a mined resource can be shipped
and reloaded without rerunning extraction.

:func:`pattern_store_state` / :func:`pattern_store_from_state` are the
lossless form (support pairs included) that a segment directory ships as
``patty_store.res`` (:func:`repro.kb.shard.build_segments`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TextIO

from repro.patty.patterns import RelationalPattern
from repro.patty.store import PatternStore


def export_patterns_tsv(store: PatternStore, destination: str | Path | TextIO) -> int:
    """Write one line per aggregated pattern:
    ``pattern<TAB>relation<TAB>frequency<TAB>support_size``.

    Returns the number of rows written.
    """
    rows = sorted(
        store.patterns(),
        key=lambda p: (-p.frequency, p.relation, p.text),
    )

    def write_all(handle: TextIO) -> int:
        handle.write("# pattern\trelation\tfrequency\tsupport\n")
        for pattern in rows:
            handle.write(
                f"{pattern.text}\t{pattern.relation}\t"
                f"{pattern.frequency}\t{len(pattern.support)}\n"
            )
        return len(rows)

    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_all(handle)
    return write_all(destination)


def import_patterns_tsv(source: str | Path | TextIO) -> PatternStore:
    """Rebuild a :class:`PatternStore` from an exported TSV.

    Support *sets* are not serialised (like the public PATTY release, which
    shipped only support sizes); imported patterns carry synthetic support
    pair counts so frequencies — the only thing section 2.2.3 consumes —
    round-trip exactly.
    """
    def read_all(handle: TextIO) -> PatternStore:
        store = PatternStore()
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(
                    f"malformed pattern TSV at line {line_number}: {line!r}"
                )
            text, relation, frequency, support_size = parts
            support = {(f"pair{i}", relation) for i in range(int(support_size))}
            store.add_pattern(RelationalPattern(
                text, relation, int(frequency), support,
            ))
        return store

    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            return read_all(handle)
    return read_all(source)


def export_store_json(store: PatternStore, destination: str | Path | TextIO) -> None:
    """Write the word -> [(property, frequency)] index as JSON."""
    payload = {
        "format": "repro-patty-store/1",
        "words": {
            word: [
                {"property": name, "frequency": frequency}
                for name, frequency in store.properties_for(word)
            ]
            for word in store.words()
        },
    }
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    else:
        json.dump(payload, destination, indent=2, sort_keys=True)


def pattern_store_state(store: PatternStore) -> list:
    """The whole store as a JSON-able list: every pattern's text,
    relation, frequency and sorted support pairs, in store order."""
    return [
        [pattern.text, pattern.relation, pattern.frequency,
         sorted(pattern.support)]
        for pattern in store.patterns()
    ]


def pattern_store_from_state(state: list) -> PatternStore:
    """Inverse of :func:`pattern_store_state`: the same patterns in the
    same order, hence the same word -> property frequencies."""
    return PatternStore(
        RelationalPattern(
            text, relation, frequency, {(subject, obj) for subject, obj in support}
        )
        for text, relation, frequency, support in state
    )
