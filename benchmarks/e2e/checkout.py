"""Where the benchmark runs: the checkout it sits in and that checkout's
source tree.  Every file the benchmark reads or writes is under ``ROOT``."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Prepared segment directories and oracles (see prep.py); not committed.
CACHE = os.path.join(HERE, ".cache")
#: Trace span dumps of ``--trace 1`` runs; not committed.
OUT = os.path.join(HERE, ".out")


def load_spec(root: str = ROOT) -> dict:
    """The ``BENCHMARK.json`` of the checkout at ``root``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Exits non-zero, before any measurement, when the checkout has no
    source tree, so a stray installed copy can never be benchmarked.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no source tree at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC}")
