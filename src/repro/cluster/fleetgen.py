"""Distributed dataset generation: shard a ``DatasetSpec`` across a fleet.

``generate_dataset`` already splits a dataset into batches and
draws every random case up front from ``spec.seed`` — which makes the work
embarrassingly shardable *without* touching the RNG stream: every replica
re-draws the identical case list locally (sampling is cheap; solving is
not) and solves only the batches whose **global batch index** falls in its
shard (``index % shard_count == shard_index``).  The client then re-draws
the same cases once more to rasterise the inputs (rasterisation is also
cheap) and stitches the returned target arrays back together in global
batch order.  The assembled dataset is bitwise-identical to a single-host
``generate_dataset`` run — same cases, each answered by the same
per-case product against the block basis — except for the wall-clock
``solve_seconds`` metadata, which is nondeterministic even between two
single-host runs.

Three layers use this module:

* the replica (``POST /generate`` in :mod:`repro.serving.server`) calls
  :func:`generate_shard` and answers the ``.npz`` bytes;
* the router forwards shard requests round-robin over healthy replicas;
* the CLI (``repro-thermal generate --fleet <router-url>``) calls
  :func:`fleet_generate`, which posts one request per shard concurrently
  and merges with :func:`merge_shards`.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import numpy as np

from repro.chip.designs import get_chip
from repro.chip.stack import ChipStack
from repro.cluster.proxy import ReplicaClient, ReplicaError
from repro.data.dataset import ThermalDataset
from repro.data.generation import DEFAULT_BATCH_SIZE, DatasetSpec
from repro.data.power import PowerSampler
from repro.runtime.plane import ExecutionPlane, PlaneTask, SerialPlane
from repro.runtime.tasks import SolverSpec, build_fvm_solver, generate_batch, solver_state_key

__all__ = [
    "spec_to_payload",
    "spec_from_payload",
    "generate_shard",
    "merge_shards",
    "fleet_generate",
]


def spec_to_payload(spec: DatasetSpec) -> Dict[str, Any]:
    """JSON-safe dict form of a :class:`DatasetSpec` (wire format)."""
    return {
        "chip_name": spec.chip_name,
        "resolution": spec.resolution,
        "num_samples": spec.num_samples,
        "seed": spec.seed,
        "cells_per_layer": spec.cells_per_layer,
        "core_bias": spec.core_bias,
        "idle_probability": spec.idle_probability,
        "total_power_range_W": (
            list(spec.total_power_range_W)
            if spec.total_power_range_W is not None
            else None
        ),
    }


def spec_from_payload(payload: Dict[str, Any]) -> DatasetSpec:
    """Rebuild a :class:`DatasetSpec` from its wire form (validating types)."""
    power_range = payload.get("total_power_range_W")
    return DatasetSpec(
        chip_name=str(payload["chip_name"]),
        resolution=int(payload["resolution"]),
        num_samples=int(payload["num_samples"]),
        seed=int(payload.get("seed", 0)),
        cells_per_layer=int(payload.get("cells_per_layer", 2)),
        core_bias=float(payload.get("core_bias", 3.0)),
        idle_probability=float(payload.get("idle_probability", 0.15)),
        total_power_range_W=(
            (float(power_range[0]), float(power_range[1]))
            if power_range is not None
            else None
        ),
    )


def _draw_batches(spec: DatasetSpec, chip: ChipStack, batch_size: int):
    """The exact case list and batch boundaries ``generate_dataset`` uses."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(spec.seed)
    sampler = PowerSampler(
        chip,
        total_power_range_W=spec.total_power_range_W,
        core_bias=spec.core_bias,
        idle_probability=spec.idle_probability,
    )
    cases = sampler.sample_many(spec.num_samples, rng)
    batches = [
        cases[start:start + batch_size]
        for start in range(0, spec.num_samples, batch_size)
    ]
    return sampler, batches


def generate_shard(
    spec: DatasetSpec,
    shard_index: int,
    shard_count: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    chip: Optional[ChipStack] = None,
    plane: Optional[ExecutionPlane] = None,
) -> bytes:
    """Solve one shard's batches and return them as ``.npz`` bytes.

    The archive holds ``targets_<b>`` / ``seconds_<b>`` arrays keyed by the
    **global** batch index ``b``, so the merge step needs no side channel
    to know where each batch belongs.
    """
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} out of range for shard_count {shard_count}"
        )
    chip = chip or get_chip(spec.chip_name)
    _, batches = _draw_batches(spec, chip, batch_size)
    solver_spec = SolverSpec(
        chip=chip, resolution=spec.resolution, cells_per_layer=spec.cells_per_layer
    )
    state_key = solver_state_key(solver_spec)
    plane = plane if plane is not None else SerialPlane()
    mine = [
        (index, batch)
        for index, batch in enumerate(batches)
        if index % shard_count == shard_index
    ]
    futures = [
        (
            index,
            plane.submit(
                PlaneTask(
                    fn=generate_batch,
                    payload=[case.assignment for case in batch],
                    state_key=state_key,
                    state_factory=build_fvm_solver,
                    state_spec=solver_spec,
                    affinity=index,
                )
            ),
        )
        for index, batch in mine
    ]
    arrays: Dict[str, np.ndarray] = {}
    for index, future in futures:
        batch_targets, batch_seconds = future.result()
        arrays[f"targets_{index}"] = np.stack(batch_targets)
        arrays[f"seconds_{index}"] = np.asarray(batch_seconds, dtype=np.float64)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def merge_shards(
    spec: DatasetSpec,
    shard_blobs: List[bytes],
    batch_size: int = DEFAULT_BATCH_SIZE,
    chip: Optional[ChipStack] = None,
) -> ThermalDataset:
    """Stitch shard archives back into one dataset in global batch order.

    Re-draws the seeded case list to rasterise inputs locally (the cheap
    half of generation), then walks batches ``0..B-1`` pulling each one's
    targets from whichever shard solved it.  Raises :class:`ValueError`
    when a batch is missing or duplicated — a merge must never silently
    drop cases.
    """
    chip = chip or get_chip(spec.chip_name)
    sampler, batches = _draw_batches(spec, chip, batch_size)
    targets_by_batch: Dict[int, np.ndarray] = {}
    seconds_by_batch: Dict[int, np.ndarray] = {}
    for blob in shard_blobs:
        with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
            for key in archive.files:
                kind, _, index_text = key.partition("_")
                index = int(index_text)
                if kind == "targets":
                    if index in targets_by_batch:
                        raise ValueError(f"batch {index} returned by two shards")
                    targets_by_batch[index] = archive[key]
                elif kind == "seconds":
                    seconds_by_batch[index] = archive[key]
    missing = sorted(set(range(len(batches))) - set(targets_by_batch))
    if missing:
        raise ValueError(f"shard merge is missing batches {missing}")

    inputs: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    totals: List[float] = []
    solve_times: List[float] = []
    for index, batch in enumerate(batches):
        batch_targets = targets_by_batch[index]
        batch_seconds = seconds_by_batch.get(index, np.zeros(len(batch)))
        if len(batch_targets) != len(batch):
            raise ValueError(
                f"batch {index} holds {len(batch_targets)} cases, expected {len(batch)}"
            )
        for case, case_targets, case_seconds in zip(batch, batch_targets, batch_seconds):
            inputs.append(sampler.rasterize(case, spec.resolution, spec.resolution))
            targets.append(case_targets)
            totals.append(case.total_W)
            solve_times.append(float(case_seconds))
    return ThermalDataset(
        inputs=np.stack(inputs),
        targets=np.stack(targets),
        chip_name=chip.name,
        resolution=spec.resolution,
        metadata={
            "total_power_W": np.asarray(totals),
            "solve_seconds": np.asarray(solve_times),
        },
    )


def fleet_generate(
    router_url: str,
    spec: DatasetSpec,
    batch_size: int = DEFAULT_BATCH_SIZE,
    shard_count: Optional[int] = None,
    verbose: bool = False,
) -> ThermalDataset:
    """Generate ``spec`` through a fleet router and merge the shards.

    ``shard_count`` defaults to the router's healthy replica count (one
    shard per replica); shard requests post concurrently so replicas solve
    their slices in parallel.  The router retries a shard on a healthy
    peer when a replica dies mid-generation, so a partially-failed fleet
    still yields the complete dataset.
    """
    client = ReplicaClient(router_url)
    try:
        if shard_count is None:
            health = client.get_json("/healthz")
            shard_count = max(int(health.get("healthy_count", 1)), 1)
        payload = {
            "spec": spec_to_payload(spec),
            "batch_size": batch_size,
            "shard": {"count": shard_count},
        }

        def post_shard(index: int) -> bytes:
            body = dict(payload, shard={"index": index, "count": shard_count})
            response = client.post_json("/generate", body)
            if response.status != 200:
                raise ReplicaError(
                    f"shard {index} failed with HTTP {response.status}: "
                    f"{response.body[:200].decode('utf-8', 'replace')}"
                )
            return response.body

        if verbose:
            print(f"  fleet generation: {shard_count} shards via {client.base_url}")
        with ThreadPoolExecutor(max_workers=shard_count) as pool:
            blobs = list(pool.map(post_shard, range(shard_count)))
    finally:
        client.close()
    return merge_shards(spec, blobs, batch_size=batch_size)
