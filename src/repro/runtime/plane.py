"""The inline task runner dataset generation submits its batches to.

:class:`SerialPlane` runs each :class:`PlaneTask` on the calling thread
against a small LRU of warm states (prepared solvers with their block
basis), so one dataset, or a run of datasets sharing a plane, builds each
basis once.  It is the only plane: since the exact block basis made a case
cost ~125 µs, most of it sampling and rasterisation in the caller, shipping
batches to worker threads or processes only added pickling.

The class and :func:`~repro.runtime.tasks.generate_batch` stay separate
names because perfbench's tracer times ``SerialPlane.submit`` and
``generate_batch`` as layers of its ``generate`` workload.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

#: Warm states a plane keeps before evicting the least recently used.
STATE_CAPACITY = 4


@dataclass(frozen=True)
class PlaneTask:
    """One unit of work: ``fn(state, payload)`` against a warm state.

    ``state`` is built once per ``state_key`` by
    ``state_factory(state_spec)`` and reused by every later task carrying
    the same key.
    """

    fn: Callable[[Any, Any], Any]
    payload: Any
    state_key: Hashable
    state_factory: Callable[[Any], Any]
    state_spec: Any


class SerialPlane:
    """Runs tasks inline on the calling thread against an LRU of warm states."""

    def __init__(self) -> None:
        self._states: "OrderedDict[Hashable, Any]" = OrderedDict()

    def submit(self, task: PlaneTask) -> Any:
        """Run ``task`` now and return ``fn``'s result (exceptions propagate)."""
        if task.state_key in self._states:
            self._states.move_to_end(task.state_key)
        else:
            self._states[task.state_key] = task.state_factory(task.state_spec)
            if len(self._states) > STATE_CAPACITY:
                self._states.popitem(last=False)
        return task.fn(self._states[task.state_key], task.payload)
