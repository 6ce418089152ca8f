"""Offline compile farm: fill an artifact store ahead of rollout.

A deploy fleet sharing one artifact directory still pays the first-seen
compile for every key — planning, netlist build, lowering, fusing — on
whichever unlucky host deploys first.  This module closes that gap (the
ROADMAP's "persistent kernel prewarming" item): walk a **workload
manifest** offline, push every named compile through all four pipeline
stages into a :class:`~repro.serve.cache.CompileCache` store, and ship
the directory (or mount it) to the fleet.  Every later deploy — local
or via :mod:`repro.cluster` shard servers, which can *only* resolve
kernels from the store — is then a zero-stage kernel hit, the contract
``benchmarks/bench_cluster_dispatch.py`` asserts with the
:data:`repro.core.stages.STAGES` counters.

Manifest format (JSON)::

    {
      "store": "artifacts/",            // optional; --store overrides
      "defaults": {"input_width": 8, "scheme": "csd",
                   "tree_style": "compact"},
      "workloads": [
        {"name": "readout",             // explicit matrix, 2 shards
         "matrix": [[1, -2], [0, 3]],
         "shards": 2},
        {"name": "reservoir-64",        // generated matrix, LUT-tiled
         "random": {"rows": 64, "cols": 64, "width": 8,
                    "element_sparsity": 0.9, "seed": 7},
         "lut_budget": 6000,
         "input_width": 8}
      ]
    }

Each workload names a matrix — explicit ``"matrix"`` rows, or
``"random"`` generated by
:func:`repro.workloads.matrices.element_sparse_matrix` (seeded, so the
manifest is reproducible) — plus optional sharding (``"shards"`` or
``"lut_budget"``); the prewarmer compiles exactly the column pieces a
matching deployment would, **and** the monolithic matrix when unsharded.
Compile options default per-manifest under ``"defaults"`` and may be
overridden per workload.

Run::

    python -m repro.serve.prewarm manifest.json [--store DIR]

The report (JSON on stdout) lists every key filled, its resolution
source (``compiled`` for new work, ``kernel``/``memory`` when the store
already had it — prewarm is idempotent), and the pipeline stage counts
actually executed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

import numpy as np

from repro.core.stages import STAGES
from repro.serve.cache import CompileCache
from repro.serve.shards import column_ranges
from repro.workloads.matrices import element_sparse_matrix

__all__ = ["load_manifest", "workload_matrix", "prewarm", "main"]

_DEFAULTS = {"input_width": 8, "scheme": "csd", "tree_style": "compact"}


def load_manifest(path: str | pathlib.Path) -> dict[str, Any]:
    """Read and structurally validate one manifest file."""
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, dict) or not isinstance(data.get("workloads"), list):
        raise ValueError(
            f"{path}: a manifest is a JSON object with a 'workloads' list"
        )
    if not data["workloads"]:
        raise ValueError(f"{path}: manifest names no workloads")
    return data


def workload_matrix(spec: dict[str, Any]) -> np.ndarray:
    """The signed matrix one workload entry names."""
    if ("matrix" in spec) == ("random" in spec):
        raise ValueError(
            f"workload {spec.get('name', '?')!r} needs exactly one of "
            "'matrix' (explicit rows) or 'random' (generator spec)"
        )
    if "matrix" in spec:
        arr = np.asarray(spec["matrix"], dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(
                f"workload {spec.get('name', '?')!r}: 'matrix' must be a "
                f"non-empty 2-D array, got shape {arr.shape}"
            )
        return arr
    gen = dict(spec["random"])
    rng = np.random.default_rng(int(gen.pop("seed", 0)))
    try:
        rows, cols = int(gen.pop("rows")), int(gen.pop("cols"))
    except KeyError as exc:
        raise ValueError(
            f"workload {spec.get('name', '?')!r}: 'random' is missing {exc}"
        ) from exc
    width = int(gen.pop("width", 8))
    sparsity = float(gen.pop("element_sparsity", 0.0))
    signed = bool(gen.pop("signed", True))
    if gen:
        raise ValueError(
            f"workload {spec.get('name', '?')!r}: unknown 'random' "
            f"fields {sorted(gen)}"
        )
    return element_sparse_matrix(
        rows=rows,
        cols=cols,
        width=width,
        element_sparsity=sparsity,
        rng=rng,
        signed=signed,
    )


def prewarm(
    manifest: dict[str, Any],
    store: str | pathlib.Path | None = None,
    cache: CompileCache | None = None,
) -> dict[str, Any]:
    """Fill the store with every compile the manifest's workloads imply.

    Returns the report dict (also what the CLI prints).  ``store``
    overrides the manifest's own ``"store"``; alternatively pass an
    existing ``cache`` (it must be persistent).  Idempotent: keys the
    store already holds resolve as kernel hits and execute zero stages.
    """
    if cache is None:
        target = store if store is not None else manifest.get("store")
        if target is None:
            raise ValueError(
                "no store: pass store=..., or put \"store\": ... in the manifest"
            )
        cache = CompileCache(directory=target)
    if cache.directory is None:
        raise ValueError("prewarm needs a persistent cache (directory=...)")
    defaults = {**_DEFAULTS, **manifest.get("defaults", {})}
    before = STAGES.snapshot()
    workloads: list[dict[str, Any]] = []
    for spec in manifest["workloads"]:
        matrix = workload_matrix(spec)
        options = {k: spec.get(k, defaults[k]) for k in _DEFAULTS}
        try:
            ranges = column_ranges(
                matrix,
                spec.get("shards"),
                spec.get("lut_budget"),
                str(options["scheme"]),
            )
        except ValueError as exc:
            raise ValueError(f"workload {spec.get('name', '?')!r}: {exc}") from exc
        keys: list[dict[str, Any]] = []
        for start, stop in ranges:
            entry = cache.get(matrix[:, start:stop], **options)
            keys.append(
                {
                    "stem": entry.key.stem,
                    "columns": [start, stop],
                    "source": entry.source,
                    "terms": entry.fused.terms,
                }
            )
        workloads.append(
            {
                "name": spec.get("name", f"workload-{len(workloads)}"),
                "shape": list(matrix.shape),
                **options,
                "keys": keys,
            }
        )
    return {
        "store": str(cache.directory),
        "workloads": workloads,
        "stages": STAGES.delta(before),
        "cache": cache.stats(),
        "disk": cache.disk_stats(),
    }


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.serve.prewarm manifest.json [--store DIR]``."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.prewarm",
        description=(
            "Walk a workload manifest and fill a CompileCache artifact "
            "store through all four compile stages ahead of rollout."
        ),
    )
    parser.add_argument("manifest", help="path to the workload manifest (JSON)")
    parser.add_argument(
        "--store",
        default=None,
        help="artifact directory (overrides the manifest's \"store\")",
    )
    args = parser.parse_args(argv)
    try:
        report = prewarm(load_manifest(args.manifest), store=args.store)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"prewarm: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
