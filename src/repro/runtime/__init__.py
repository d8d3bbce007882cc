"""Inline task runner.

:class:`~repro.runtime.plane.SerialPlane` runs dataset generation's batches
on the calling thread against warm per-key solver state, and
:mod:`repro.runtime.tasks` holds the task functions and state recipes it
runs.
"""

from repro.runtime.plane import PlaneTask, SerialPlane

__all__ = [
    "PlaneTask",
    "SerialPlane",
]
