"""Inline task runner and fault injection.

:class:`~repro.runtime.plane.SerialPlane` runs dataset generation's batches
on the calling thread against warm per-key solver state, and
:mod:`repro.runtime.tasks` holds the task functions and state recipes it
runs.  :mod:`repro.runtime.faults` makes backend failures injectable
(``serve --chaos``) so the circuit breaker and the fallback chain are
tested deterministically.
"""

from repro.runtime.faults import BackendFault, FaultPlan, InjectedFault
from repro.runtime.plane import PlaneTask, SerialPlane

__all__ = [
    "BackendFault",
    "FaultPlan",
    "InjectedFault",
    "PlaneTask",
    "SerialPlane",
]
