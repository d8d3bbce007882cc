"""On-disk caching of generated datasets.

Dataset generation runs the FVM solver once per sample, which is the slowest
part of the experiment pipeline.  The cache stores each generated dataset as
an ``.npz`` file keyed by the :class:`~repro.data.generation.DatasetSpec`, so
repeated benchmark runs (and the different benches that share a dataset)
only pay the solver cost once.

The cache key embeds the solver pipeline version
(:data:`repro.solvers.fvm.SOLVER_VERSION`), so datasets produced by an older
solver are regenerated rather than silently reused after a solver change.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Optional

from repro.data.dataset import ThermalDataset
from repro.data.generation import DatasetSpec, generate_dataset
from repro.runtime.plane import SerialPlane

_ENV_CACHE_DIR = "REPRO_DATASET_CACHE"


class DatasetCache:
    """File-system cache for generated thermal datasets.

    Misses are generated through one :class:`~repro.runtime.plane.SerialPlane`
    per cache, so each (chip, resolution) basis is built once however many
    datasets the cache generates for it.  The plane is not thread-safe:
    generation runs under a lock, while loads and saves stay concurrent.
    """

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            directory = os.environ.get(_ENV_CACHE_DIR, os.path.join(".cache", "repro_datasets"))
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._plane = SerialPlane()
        self._generation_lock = threading.Lock()

    def path_for(self, spec: DatasetSpec) -> Path:
        return self.directory / f"{spec.cache_key()}.npz"

    def contains(self, spec: DatasetSpec) -> bool:
        return self.path_for(spec).exists()

    def get(self, spec: DatasetSpec, verbose: bool = False) -> ThermalDataset:
        """Load the dataset for ``spec``, generating and storing it if needed."""
        path = self.path_for(spec)
        if path.exists():
            return ThermalDataset.load(str(path))
        with self._generation_lock:
            dataset = generate_dataset(spec, verbose=verbose, plane=self._plane)
        # Save to a sibling temp file and rename it into place: a save cut
        # short must never leave a truncated archive under the final name,
        # which contains() would report and every later get() fail to load.
        # The ".npz" suffix stops numpy from appending one of its own.
        temporary = path.with_name(
            f"{path.stem}.{os.getpid()}-{threading.get_ident()}.tmp.npz"
        )
        try:
            dataset.save(str(temporary))
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)
        return dataset

    def clear(self) -> int:
        """Delete all cached datasets; returns the number of files removed."""
        removed = 0
        for path in self.directory.glob("*.npz"):
            path.unlink()
            removed += 1
        return removed
