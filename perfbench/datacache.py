"""Seeded synthetic datasets for the benchmark, cached and digest-checked.

A dataset is fully determined by its ``DatasetSpec``. The first request
generates it in a child process (so neither its time nor its memory lands
in the measuring process), stores it under ``perfbench/_cache/<key>/``
and records a SHA-256 digest of every file beside it. Later requests
re-hash the files and reuse them only if the digest still matches.

Run as a script, this module is the generation child:

    python3 perfbench/datacache.py --spec '<json>' --out <dir>
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
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / "_cache"
GENERATION_TIMEOUT_S = 600
# Set by the entry points before numpy loads; child processes inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class DatasetSpec:
    preset: str
    scene_seed: int
    frames: int
    edge_jitter_px: float
    edge_dropout: float
    drift_per_m: float
    occlude: tuple[int, int] | None = None  # inclusive frame window of a dynamic wall

    @property
    def key(self) -> str:
        wall = f"-wall{self.occlude[0]}_{self.occlude[1]}" if self.occlude else ""
        return (
            f"{self.preset}-s{self.scene_seed}-n{self.frames}-j{self.edge_jitter_px:g}"
            f"-d{self.edge_dropout:g}-r{self.drift_per_m:g}{wall}"
        )


@dataclass(frozen=True)
class CachedDataset:
    root: Path
    digest: str
    generation_s: float  # wall time of the generation child when it was built
    reused: bool


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and content, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_dataset(spec: DatasetSpec, cache_dir: Path = CACHE_DIR) -> CachedDataset:
    """Return the cached dataset for ``spec``, generating it if needed."""
    root = cache_dir / spec.key
    spec_fields = json.loads(json.dumps(asdict(spec)))  # as stored: tuples read back as lists
    meta_path = cache_dir / f"{spec.key}.json"
    if root.is_dir() and meta_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("spec") == spec_fields and tree_digest(root) == meta.get("digest"):
            return CachedDataset(root, meta["digest"], meta["generation_s"], reused=True)
        print(f"perfbench: cached dataset {spec.key} failed its digest check; regenerating", file=sys.stderr)
    shutil.rmtree(root, ignore_errors=True)
    meta_path.unlink(missing_ok=True)

    cache_dir.mkdir(parents=True, exist_ok=True)
    for stale in cache_dir.glob(f".{spec.key}.*"):  # left by an interrupted generation
        shutil.rmtree(stale, ignore_errors=True)
    staging = cache_dir / f".{spec.key}.{os.getpid()}"
    started = time.perf_counter()
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--spec", json.dumps(asdict(spec)), "--out", str(staging)],
            check=True,
            timeout=GENERATION_TIMEOUT_S,
        )
        generation_s = time.perf_counter() - started
        digest = tree_digest(staging)
        staging.rename(root)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    meta = {"spec": spec_fields, "digest": digest, "generation_s": generation_s}
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return CachedDataset(root, digest, generation_s, reused=False)


def _generate(spec: DatasetSpec, out: Path) -> None:
    from dataclasses import replace

    from edgeloc import synthetic

    noise = synthetic.NoiseConfig(
        odometry_drift_per_m=spec.drift_per_m,
        edge_jitter_px=spec.edge_jitter_px,
        edge_dropout=spec.edge_dropout,
    )
    scene = synthetic.generate_scene(spec.scene_seed, preset=spec.preset, n_frames=spec.frames, noise=noise)
    if spec.occlude is not None:
        wall = synthetic.make_occluder_wall(scene, *spec.occlude)
        scene = replace(scene, noise=replace(noise, occluders=(wall,)))
    synthetic.write_dataset(scene, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="generate one benchmark dataset (child process)")
    parser.add_argument("--spec", required=True, help="DatasetSpec fields as JSON")
    parser.add_argument("--out", required=True, help="directory to write the dataset into")
    args = parser.parse_args(argv)
    fields = json.loads(args.spec)
    if fields.get("occlude") is not None:
        fields["occlude"] = tuple(fields["occlude"])
    sys.path.insert(0, str(REPO_ROOT / "src"))
    _generate(DatasetSpec(**fields), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
