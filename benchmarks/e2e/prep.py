"""Build the synthetic KB once per checkout and cache what runs reuse.

For one scale it writes, under ``.cache/`` next to this file:

* ``segments/`` — the 8-shard segment directory of the synthetic KB;
* ``oracle.json`` — the canonical answers of the twelve SPARQL queries,
  from the in-heap columnar engine, confirmed by the term-space engine;
* ``meta.json`` — the manifest fingerprint and the time prep took.

The entry is keyed by (scale, KB seed, shards, a hash of ``src/repro``),
so any source change rebuilds it.  Runs call :func:`ensure`, which builds
a missing entry in a subprocess (its memory never counts towards a run's
peak RSS) and reports ``prep_s`` apart from ``setup_s``.

    python3 benchmarks/e2e/prep.py --scale 16 --out DIR    # one entry
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

from checkout import CACHE, SRC, use_source_tree

SHARDS = 8


def _source_hash() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, subfolders, files in sorted(os.walk(package)):
        subfolders.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def ensure(scale: int) -> str:
    """The cache entry for ``scale``, built if missing, after checking its
    segments still carry the fingerprint prep recorded."""
    from inputs import KB_SEED
    from repro.kb import SegmentedBackend

    prefix = f"scale{scale}-seed{KB_SEED}-shards{SHARDS}-"
    entry = os.path.join(CACHE, prefix + _source_hash())
    built = not os.path.isdir(entry)
    if built:
        os.makedirs(CACHE, exist_ok=True)
        for stale in os.listdir(CACHE):
            if stale.startswith(prefix):
                shutil.rmtree(os.path.join(CACHE, stale))
        staging = f"{entry}.tmp{os.getpid()}"
        subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--scale", str(scale), "--out", staging],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        os.rename(staging, entry)
    with open(os.path.join(entry, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    backend = SegmentedBackend(os.path.join(entry, "segments")).open()
    try:
        fingerprint = backend.fingerprint()["content"]
    finally:
        backend.close()
    if fingerprint != meta["fingerprint"]:
        raise SystemExit(f"error: {entry} does not match its recorded fingerprint")
    print(f"{'prep_s':<40} {meta['prep_s']:>14.6g} s  "
          f"({'built now' if built else 'cached'}; not part of setup_s)")
    return entry


def build(scale: int, out: str) -> dict:
    from inputs import KB_SEED, QUERIES, canonical
    from repro.kb import build_segments, load_synthetic_kb
    from repro.sparql import SparqlEngine

    start = time.perf_counter()
    kb = load_synthetic_kb(scale=scale, seed=KB_SEED)
    manifest = build_segments(kb.graph, os.path.join(out, "segments"), shards=SHARDS)
    oracle = {name: canonical(kb.engine.query(text)) for name, text in QUERIES}
    term_space = SparqlEngine(kb.graph, idspace=False)
    for name, text in QUERIES:
        if canonical(term_space.query(text)) != oracle[name]:
            raise SystemExit(f"error: columnar and term-space disagree on {name}")
    meta = {
        "scale": scale,
        "kb_seed": KB_SEED,
        "shards": SHARDS,
        "triples": manifest["triples"],
        "fingerprint": manifest["fingerprint"],
        "prep_s": time.perf_counter() - start,
    }
    with open(os.path.join(out, "oracle.json"), "w", encoding="utf-8") as handle:
        json.dump(oracle, handle)
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    use_source_tree()
    print(json.dumps(build(args.scale, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
