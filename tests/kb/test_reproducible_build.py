"""Segment builds are reproducible across processes.

Dictionary ids follow the order in which triples enter the graph, so a
builder that adds triples in ``set`` order makes the ids, and every file
derived from them (dictionary, shards, manifest fingerprint, shipped
resources), depend on ``PYTHONHASHSEED``.  Two processes with different
hash seeds must write byte-identical segment directories.
"""

import os
import subprocess
import sys
from pathlib import Path


def _build_segments(out: Path, hash_seed: str) -> None:
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "kb", "build-segments",
            "--source", "synthetic", "--scale", "2", "--shards", "4",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_segment_files_are_identical_across_hash_seeds(tmp_path):
    first, second = tmp_path / "hashseed0", tmp_path / "hashseed1"
    _build_segments(first, "0")
    _build_segments(second, "1")
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert "patty_store.res" in names and "kb_index.bin" in names
    differing = [
        name for name in names
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    assert differing == []
