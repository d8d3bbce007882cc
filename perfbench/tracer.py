"""Outside-in span recorder for the benchmark's traced runs.

The program under test is not modified: :meth:`Tracer.install` replaces a
fixed list of public functions and methods with wrappers that record one
span per call, ``(id, parent, name, start, end, phase, request_ids, attrs)``.
Parents come from a per-thread stack, so a span's parent is the innermost
wrapped call still running on the same thread.  Request ids travel in the
HTTP bodies (``request_id``) and are read off the wrapped calls' arguments;
they link one request's spans across the server's HTTP thread and its
dispatcher thread.  Spans stay in memory until :meth:`Tracer.dump`.

:func:`summarize` turns a span dump into the per-layer metrics.  A span's
*self* time is its duration minus the durations of the wrapped calls nested
directly inside it (children run on the same thread, so they never overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Bytes one stored factor entry costs a triangular sweep: an 8-byte value
#: plus a 4-byte row index.
FACTOR_ENTRY_BYTES = 12
#: Bytes per right-hand-side entry: read once as input, written once as output.
RHS_ENTRY_BYTES = 16


def _rid_of_payload(args, kwargs):
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    return payload.get("request_id") if isinstance(payload, dict) else None


def _rid_of_request(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "request_id", None)


def _rids_of_batch(args, kwargs):
    requests = args[1] if len(args) > 1 else kwargs.get("requests")
    return [request.request_id for request in requests]


def _rid_of_self(args, kwargs):
    return getattr(args[0], "request_id", None) or None


class Tracer:
    """In-memory span recorder installed around the program's public calls."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: Phase stamped on spans as they start: ``"setup"``, then
        #: ``"steady"`` for the timed phase and ``"check"`` for the
        #: correctness checks after it (set by the workload process).
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._factor_nnz: Dict[int, Optional[int]] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        rids: Optional[Callable] = None,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            phase = tracer.phase
            stack.append(span_id)
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    span_id, parent, name, start, end, phase,
                    rids(args, kwargs) if rids is not None else None,
                    attrs(args, kwargs, result) if attrs is not None and not failed else None,
                ))

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A wrapper recording one span per item a generator function yields.

        Only the time spent producing each item counts; the consumer's work
        between two items runs outside any of these spans.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                span_id = next(tracer._ids)
                parent = stack[-1] if stack else None
                phase = tracer.phase
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, phase, None, None))
                yield item

        return traced

    # ------------------------------------------------------------------
    def _backsub_attrs(self, args, kwargs, result):
        factor, rhs = args[0], args[1]
        key = id(factor)
        if key not in self._factor_nnz:
            # SuperLU exposes the stored entry count of L + U; other kernels
            # (CHOLMOD) do not, and their byte count stays unmeasured.
            superlu = getattr(getattr(factor, "_solve", None), "__self__", None)
            self._factor_nnz[key] = getattr(superlu, "nnz", None)
        nnz = self._factor_nnz[key]
        columns = 1 if rhs.ndim == 1 else int(rhs.shape[1])
        computed = (
            None if nnz is None
            else nnz * FACTOR_ENTRY_BYTES + int(rhs.shape[0]) * columns * RHS_ENTRY_BYTES
        )
        return {"columns": columns, "bytes": computed}

    @staticmethod
    def _attention_attrs(args, kwargs, result):
        batch, _, height, width = args[1].shape
        positions = height * width
        return {"score_bytes": batch * positions * positions * result.data.dtype.itemsize}

    def install(self) -> None:
        """Import the traced modules and wrap their public calls."""
        # import_module, not ``from package import module``: some packages
        # re-export a function under their submodule's name.
        module = importlib.import_module
        api_backends = module("repro.api.backends")
        api_session = module("repro.api.session")
        api_solution = module("repro.api.solution")
        autodiff_tensor = module("repro.autodiff.tensor")
        data_dataset = module("repro.data.dataset")
        data_generation = module("repro.data.generation")
        data_power = module("repro.data.power")
        nn_attention = module("repro.nn.attention")
        nn_spectral = module("repro.nn.spectral")
        nn_unet = module("repro.nn.unet")
        operators_base = module("repro.operators.base")
        operators_factory = module("repro.operators.factory")
        optim_optimizers = module("repro.optim.optimizers")
        runtime_plane = module("repro.runtime.plane")
        runtime_tasks = module("repro.runtime.tasks")
        serving_backends = module("repro.serving.backends")
        serving_engine = module("repro.serving.engine")
        serving_request = module("repro.serving.request")
        solvers_factor = module("repro.solvers.factor")
        solvers_fvm = module("repro.solvers.fvm")
        solvers_voxelize = module("repro.solvers.voxelize")

        itemsize = lambda args, kwargs, result: {"itemsize": result.dtype.itemsize}
        data_itemsize = lambda args, kwargs, result: {"itemsize": result.data.dtype.itemsize}
        methods = [
            (serving_engine.MicroBatchEngine, "solve", _rid_of_request, None),
            (serving_backends.SessionBackend, "solve_batch", _rids_of_batch, None),
            (api_solution.ThermalSolution, "to_json", _rid_of_self, None),
            (api_session.ThermalSession, "solve_batch", None, None),
            (api_backends.FVMBackendAdapter, "solve_batch", None, None),
            (api_backends.OperatorBackendAdapter, "solve_batch", None, None),
            (solvers_fvm.FVMSolver, "solve_batch", None, None),
            (solvers_voxelize.GridGeometry, "rasterize_power", None, None),
            (solvers_factor.SPDFactor, "solve", None, self._backsub_attrs),
            (data_power.PowerSampler, "sample_many", None, None),
            (data_power.PowerSampler, "rasterize", None, None),
            (runtime_plane.SerialPlane, "submit", None, None),
            (operators_base.OperatorModel, "lift", None, None),
            (operators_base.OperatorModel, "project", None, data_itemsize),
            (nn_spectral.FourierLayer, "forward", None, None),
            (nn_spectral.SpectralConv2d, "forward", None, None),
            (nn_unet.UNet2d, "forward", None, None),
            (nn_attention.SpatialChannelAttention, "forward", None, self._attention_attrs),
            (operators_factory.LoadedOperator, "predict", None, itemsize),
            (autodiff_tensor.Tensor, "backward", None, None),
            (optim_optimizers.Adam, "step", None, None),
        ]
        for owner, attr, rids, attrs in methods:
            name = f"{owner.__name__}.{attr}"
            setattr(owner, attr, self.wrap(name, owner.__dict__[attr], rids, attrs))

        request_cls = serving_request.ThermalRequest
        from_payload = request_cls.__dict__["from_payload"].__func__
        request_cls.from_payload = classmethod(
            self.wrap("ThermalRequest.from_payload", from_payload, _rid_of_payload)
        )
        dataset_cls = data_dataset.ThermalDataset
        dataset_cls.batches = self.wrap_generator(
            "ThermalDataset.batches", dataset_cls.__dict__["batches"]
        )
        for module, attr in (
            (solvers_factor, "factorize"),
            (data_generation, "generate_dataset"),
            (runtime_tasks, "generate_batch"),
        ):
            _replace_everywhere(getattr(module, attr), self.wrap(attr, getattr(module, attr)))

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` (atomically)."""
        temporary = f"{path}.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump({"spans": list(self.spans)}, handle)
        os.replace(temporary, path)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement``, including names bound by ``from module import fn``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def _median_ms(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


class SpanSet:
    """Indexed view of one span dump: durations, self times, request ids."""

    def __init__(self, raw: List[list], steady: Callable[["SpanSet", list], bool]):
        self.spans = {span[0]: span for span in raw}
        self.child_time: Dict[int, float] = defaultdict(float)
        for span in raw:
            if span[1] is not None:
                self.child_time[span[1]] += span[4] - span[3]
        self._rids: Dict[int, Any] = {}
        # Timed phase only, for every metric except the set-up-inclusive ones.
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        for span in raw:
            if steady(self, span):
                self.by_name[span[2]].append(span)
        # Set-up plus steady phase; the correctness checks run afterwards.
        self.all_by_name: Dict[str, List[tuple]] = defaultdict(list)
        for span in raw:
            if span[5] != "check":
                self.all_by_name[span[2]].append(span)

    def rids(self, span) -> Any:
        """Request id(s) of a span, inherited from its nearest tagged ancestor."""
        span_id = span[0]
        if span_id not in self._rids:
            if span[6] is not None:
                value = span[6]
            elif span[1] is not None and span[1] in self.spans:
                value = self.rids(self.spans[span[1]])
            else:
                value = None
            self._rids[span_id] = value
        return self._rids[span_id]

    def durations(self, name: str) -> List[float]:
        return [span[4] - span[3] for span in self.by_name.get(name, [])]

    def self_times(self, name: str) -> List[float]:
        return [
            span[4] - span[3] - self.child_time.get(span[0], 0.0)
            for span in self.by_name.get(name, [])
        ]

    def attr_values(self, name: str, key: str) -> List[Any]:
        spans = self.by_name.get(name, [])
        return [span[7][key] for span in spans if span[7] and span[7].get(key) is not None]


def steady_by_phase(spans: SpanSet, span) -> bool:
    """Steady spans of an in-process workload: stamped after set-up ended."""
    return span[5] == "steady"


def steady_by_request(spans: SpanSet, span) -> bool:
    """Steady spans of the server: those serving a timed client request."""
    rids = spans.rids(span)
    if isinstance(rids, list):
        return any(rid.startswith("c") for rid in rids)
    return isinstance(rids, str) and rids.startswith("c")


def summarize(raw: List[list], steady: Callable, client_latency: Optional[Dict[str, float]] = None
              ) -> Dict[str, float]:
    """Per-layer metrics of one traced run (missing layers read 0).

    ``client_latency`` maps request id to client-observed seconds (serve
    only); it turns server-side spans into the HTTP-layer residue.
    """
    spans = SpanSet(raw, steady)
    out: Dict[str, float] = {}

    # Serving path: per-request views joined on request id.
    validate = {spans.rids(s): s[4] - s[3] for s in spans.by_name.get("ThermalRequest.from_payload", [])}
    to_json = {spans.rids(s): s[4] - s[3] for s in spans.by_name.get("ThermalSolution.to_json", [])}
    engine = {spans.rids(s): s[4] - s[3] for s in spans.by_name.get("MicroBatchEngine.solve", [])}
    batch_of: Dict[str, float] = {}
    batch_sizes = []
    for span in spans.by_name.get("SessionBackend.solve_batch", []):
        batch_sizes.append(len(span[6]))
        for rid in span[6]:
            batch_of[rid] = span[4] - span[3]
    out["serving.request.validate_ms"] = _median_ms(validate.values())
    out["api.solution.to_json_ms"] = _median_ms(to_json.values())
    out["serving.engine.wait_ms"] = _median_ms(
        total - batch_of[rid] for rid, total in engine.items() if rid in batch_of
    )
    out["serving.engine.batch_size"] = statistics.mean(batch_sizes) if batch_sizes else 0.0
    out["serving.http_ms"] = _median_ms(
        latency - validate[rid] - engine[rid] - to_json[rid]
        for rid, latency in (client_latency or {}).items()
        if rid in validate and rid in engine and rid in to_json
    )

    for metric, name in (
        ("api.session.self_ms", "ThermalSession.solve_batch"),
        ("api.backends.fvm_package_ms", "FVMBackendAdapter.solve_batch"),
        ("api.backends.operator_package_ms", "OperatorBackendAdapter.solve_batch"),
        ("solvers.fvm.solve_batch_self_ms", "FVMSolver.solve_batch"),
        ("data.generation.self_ms", "generate_dataset"),
        ("runtime.plane.submit_self_ms", "SerialPlane.submit"),
        ("runtime.tasks.generate_batch_self_ms", "generate_batch"),
        ("operators.lift_ms", "OperatorModel.lift"),
        ("nn.fourier_ms", "FourierLayer.forward"),
        ("nn.spectral_ms", "SpectralConv2d.forward"),
        ("nn.unet_ms", "UNet2d.forward"),
        ("nn.attention_ms", "SpatialChannelAttention.forward"),
        ("operators.project_ms", "OperatorModel.project"),
    ):
        out[metric] = _median_ms(spans.self_times(name))

    for metric, name in (
        ("solvers.voxelize.rasterize_power_ms", "GridGeometry.rasterize_power"),
        ("solvers.factor.backsub_ms", "SPDFactor.solve"),
        ("data.power.sample_ms", "PowerSampler.sample_many"),
        ("data.power.rasterize_ms", "PowerSampler.rasterize"),
        ("operators.predict_ms", "LoadedOperator.predict"),
        ("autodiff.backward_ms", "Tensor.backward"),
        ("optim.step_ms", "Adam.step"),
        ("data.dataset.batches_ms", "ThermalDataset.batches"),
    ):
        out[metric] = _median_ms(spans.durations(name))

    out["solvers.factor.backsub_calls"] = len(spans.by_name.get("SPDFactor.solve", []))
    out["solvers.factor.backsub_columns"] = sum(spans.attr_values("SPDFactor.solve", "columns"))
    out["solvers.factor.backsub_bytes"] = sum(spans.attr_values("SPDFactor.solve", "bytes"))
    factorizations = spans.all_by_name.get("factorize", [])
    out["solvers.factor.factorize_ms"] = _median_ms(s[4] - s[3] for s in factorizations)
    out["solvers.factor.factorize_count"] = len(factorizations)
    out["solvers.factor.factorize_steady_count"] = len(spans.by_name.get("factorize", []))

    score_bytes = spans.attr_values("SpatialChannelAttention.forward", "score_bytes")
    out["nn.attention_score_bytes"] = statistics.median(score_bytes) if score_bytes else 0
    itemsizes = (spans.attr_values("LoadedOperator.predict", "itemsize")
                 or spans.attr_values("OperatorModel.project", "itemsize"))
    out["operators.output_itemsize"] = max(itemsizes) if itemsizes else 0
    out["optim.steps"] = len(spans.by_name.get("Adam.step", []))
    return out
