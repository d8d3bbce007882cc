"""Request/response model of the thermal inference service.

A :class:`ThermalRequest` is one fully validated power-map query: which chip,
at what grid resolution, under which per-block power assignment, answered by
which backend.  A :class:`TransientRequest` is its time-integrating sibling:
a (possibly piecewise-constant) power schedule integrated over a duration,
answered with the full quasi-steady trace.  Validation happens at
construction time (through the ``create`` / ``from_payload`` classmethods)
so by the time a request reaches the serving engine or the transient
endpoint it is guaranteed solvable — the engine only admits and solves.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple, Union

from repro.api.backends import BACKEND_NAMES
from repro.api.solution import ThermalSolution
from repro.chip.designs import get_chip, list_chips
from repro.chip.stack import ChipStack
from repro.data.power import uniform_power_assignment, validate_power_assignment

#: Backends every service deployment knows about — the session's backend
#: registry, aliased so serving and the Python API can never disagree.  The
#: engine may expose a subset (e.g. no ``operator`` backend when no model
#: weights are loaded).
KNOWN_BACKENDS = BACKEND_NAMES

#: Grid-resolution bounds accepted by the service.  The lower bound keeps
#: block rasterisation meaningful; the upper bound caps the memory of one
#: pooled solver (a block basis) and of one transient step.
MIN_RESOLUTION = 4
MAX_RESOLUTION = 256

#: Upper bound on backward-Euler steps one ``/solve_transient`` request may
#: ask for — each step is a full separable solve, so an unbounded request
#: could occupy the service for minutes.
MAX_TRANSIENT_STEPS = 20_000

_REQUEST_COUNTER = itertools.count(1)


def _resolve_chip(chip: Any, chips: Optional[Any]) -> ChipStack:
    """Case-insensitively resolve a chip name against a chip source.

    ``chips`` is an optional object with ``get_chip`` / ``list_chips``
    (e.g. a :class:`~repro.api.session.ThermalSession`); the built-in
    benchmark designs otherwise.
    """
    known_chips = list(chips.list_chips()) if chips is not None else list_chips()
    resolve_chip = chips.get_chip if chips is not None else get_chip
    by_lower = {name.lower(): name for name in known_chips}
    chip_name = str(chip).lower()
    if chip_name not in by_lower:
        raise KeyError(f"unknown chip '{chip}'; available: {', '.join(known_chips)}")
    return resolve_chip(by_lower[chip_name])


def _json_float(value: Any, field: str) -> float:
    """One numeric JSON field as a float, or a ``ValueError`` naming it.

    ``float()`` raises ``OverflowError``, not ``ValueError``, for a JSON
    integer beyond the float range (~1.8e308); that must be a 400 too.
    """
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be a number within float range, got {value!r}") from None


def validate_resolution(resolution: Any) -> int:
    """Coerce and bound-check a grid resolution."""
    try:
        as_float = float(resolution)
        # OverflowError: JSON happily parses 1e400 as infinity, and int(inf)
        # raises it — that must surface as a 400, not a crashed handler.
        if as_float != int(as_float):
            raise ValueError
        resolution = int(as_float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {resolution}"
        )
    return resolution


def validate_warm_up_key(key: Any) -> Tuple[str, int, str]:
    """The ``(chip, resolution, backend)`` group key of one ``/warm_up`` entry.

    Raises :class:`ValueError` naming the entry when it is not an object or
    its resolution fails the bound ``/solve`` enforces; a missing resolution
    means the ``/solve`` default of 32.
    """
    if not isinstance(key, Mapping):
        raise ValueError(
            f"warm-up key {key!r} must be an object with 'chip', "
            "'resolution' and 'backend'"
        )
    try:
        resolution = validate_resolution(key.get("resolution", 32))
    except ValueError as error:
        raise ValueError(f"warm-up key {key!r}: {error}") from None
    return str(key.get("chip", "")), resolution, str(key.get("backend", "fvm"))


def _validate_deadline_ms(deadline_ms: Any) -> Optional[float]:
    """Turn a relative ``deadline_ms`` budget into an absolute deadline.

    Returns ``time.monotonic() + deadline_ms / 1000`` — the clock every
    deadline consumer (engine, session) compares against — or
    ``None`` when no budget was given.
    """
    if deadline_ms is None:
        return None
    budget_ms = _json_float(deadline_ms, "'deadline_ms'")
    if not math.isfinite(budget_ms) or budget_ms <= 0:
        raise ValueError(f"'deadline_ms' must be a positive finite number, got {deadline_ms!r}")
    return time.monotonic() + budget_ms / 1000.0


def _validate_assignment(
    chip_stack: ChipStack,
    powers: Optional[Mapping[str, Any]],
    total_power_W: Optional[float],
    field_name: str = "powers",
) -> Mapping[str, float]:
    """One validated flat assignment from either a mapping or a total."""
    if powers is not None and total_power_W is not None:
        raise ValueError(f"specify either '{field_name}' or 'total_power', not both")
    if powers is not None:
        if not isinstance(powers, Mapping):
            raise ValueError(
                f"'{field_name}' must map 'layer/block' to watts, got {type(powers).__name__}"
            )
        return validate_power_assignment(chip_stack, powers)
    return uniform_power_assignment(chip_stack, total_power_W)


@dataclass(frozen=True)
class ThermalRequest:
    """One validated steady-state thermal query.

    Use :meth:`create` (keyword-style) or :meth:`from_payload` (JSON body of
    the HTTP ``/solve`` endpoint) instead of the raw constructor — they run
    the chip / backend / power validation.
    """

    chip: str
    resolution: int
    assignment: Mapping[str, float]
    backend: str = "fvm"
    include_maps: bool = False
    request_id: str = ""
    deadline: Optional[float] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether this request's deadline (if any) has already passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    @property
    def total_power_W(self) -> float:
        """Total watts dissipated by this request's power assignment."""
        return float(sum(self.assignment.values()))

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        chip: str,
        powers: Optional[Mapping[str, Any]] = None,
        total_power_W: Optional[float] = None,
        resolution: int = 32,
        backend: str = "fvm",
        include_maps: bool = False,
        request_id: Optional[str] = None,
        allowed_backends: Optional[Sequence[str]] = None,
        chips: Optional[Any] = None,
        deadline_ms: Optional[float] = None,
    ) -> "ThermalRequest":
        """Validate every field and build a request.

        ``powers`` is a flat ``"layer/block" -> watts`` mapping; when omitted
        ``total_power_W`` (or the chip's budget midpoint) is spread uniformly
        over all blocks.  ``allowed_backends`` is the serving deployment's
        actual backend set (defaults to :data:`KNOWN_BACKENDS`), so custom
        engines validate against what they really offer.  ``chips`` is an
        optional chip source with ``get_chip``/``list_chips`` (e.g. a
        :class:`~repro.api.session.ThermalSession`), so deployments serving
        runtime-registered custom designs validate against their real chip
        registry; it defaults to the built-in benchmark designs.
        ``deadline_ms`` is an optional latency budget *relative to now*; the
        engine sheds the request (:class:`DeadlineExceeded` → HTTP 504)
        rather than solving it once the budget is spent.  Raises
        :class:`ValueError` / :class:`KeyError` with messages safe to return
        to an API client.
        """
        chip_stack = _resolve_chip(chip, chips)
        resolution = validate_resolution(resolution)

        allowed = tuple(allowed_backends) if allowed_backends is not None else KNOWN_BACKENDS
        backend_name = str(backend).lower()
        if backend_name not in allowed:
            raise ValueError(
                f"unknown backend '{backend}'; available: {', '.join(sorted(allowed))}"
            )

        assignment = _validate_assignment(chip_stack, powers, total_power_W)

        return cls(
            chip=chip_stack.name,
            resolution=resolution,
            assignment=assignment,
            backend=backend_name,
            include_maps=bool(include_maps),
            request_id=request_id or f"req-{next(_REQUEST_COUNTER)}",
            deadline=_validate_deadline_ms(deadline_ms),
        )

    @classmethod
    def from_payload(
        cls,
        payload: Mapping[str, Any],
        allowed_backends: Optional[Sequence[str]] = None,
        chips: Optional[Any] = None,
    ) -> "ThermalRequest":
        """Build a request from a decoded JSON body (the ``/solve`` route)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"request body must be a JSON object, got {type(payload).__name__}")
        known_keys = {
            "chip", "powers", "total_power", "resolution", "backend",
            "include_maps", "request_id", "deadline_ms",
        }
        unknown = set(payload) - known_keys
        if unknown:
            raise ValueError(
                f"unknown request fields: {', '.join(sorted(unknown))}; "
                f"accepted: {', '.join(sorted(known_keys))}"
            )
        if "chip" not in payload:
            raise ValueError("request is missing the required 'chip' field")
        total_power = payload.get("total_power")
        if total_power is not None:
            total_power = _json_float(total_power, "'total_power'")
        return cls.create(
            chip=payload["chip"],
            powers=payload.get("powers"),
            total_power_W=total_power,
            resolution=payload.get("resolution", 32),
            backend=payload.get("backend", "fvm"),
            include_maps=payload.get("include_maps", False),
            request_id=payload.get("request_id"),
            allowed_backends=allowed_backends,
            chips=chips,
            deadline_ms=payload.get("deadline_ms"),
        )


@dataclass(frozen=True)
class TransientRequest:
    """One validated transient (time-integrating) thermal query.

    Use :meth:`create` (keyword-style) or :meth:`from_payload` (JSON body of
    the HTTP ``/solve_transient`` endpoint) instead of the raw constructor —
    they run the chip / duration / schedule validation.  The power input is
    either one constant assignment or a piecewise-constant ``schedule`` of
    ``(t_s, assignment)`` steps; :meth:`trace` converts it to the
    :data:`~repro.solvers.transient.PowerTrace` the session integrates.
    """

    chip: str
    resolution: int
    duration_s: float
    dt_s: float
    assignment: Mapping[str, float]
    schedule: Tuple[Tuple[float, Mapping[str, float]], ...] = ()
    store_every: int = 1
    include_maps: bool = False
    request_id: str = ""
    deadline: Optional[float] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether this request's deadline (if any) has already passed.

        ``/solve_transient`` re-checks this after every stored step, in
        both modes: an in-flight trace whose budget runs out ends with a
        504 (a typed ``error`` frame once streaming has begun) and is
        counted as shed, exactly the engine's deadline semantics.
        """
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    @property
    def num_steps(self) -> int:
        """Backward-Euler steps this request asks the integrator for."""
        return max(int(round(self.duration_s / self.dt_s)), 1)

    @property
    def total_power_W(self) -> float:
        """Total watts of the initial (t=0) power assignment."""
        return float(sum(self.assignment.values()))

    def trace(self) -> Union[Mapping[str, float], Callable[[float], Mapping[str, float]]]:
        """The power trace to integrate.

        The constant assignment for schedule-free requests; otherwise a
        step function holding each schedule entry's assignment until the
        next entry's start time.
        """
        if not self.schedule:
            return self.assignment
        times = [t for t, _ in self.schedule]
        assignments = [a for _, a in self.schedule]

        def step(t: float) -> Mapping[str, float]:
            active = 0
            for index, start in enumerate(times):
                if start <= t:
                    active = index
                else:
                    break
            return assignments[active]

        return step

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        chip: str,
        duration_s: float,
        dt_s: float,
        powers: Optional[Mapping[str, Any]] = None,
        total_power_W: Optional[float] = None,
        schedule: Optional[Sequence[Mapping[str, Any]]] = None,
        resolution: int = 32,
        store_every: int = 1,
        include_maps: bool = False,
        request_id: Optional[str] = None,
        chips: Optional[Any] = None,
        deadline_ms: Optional[float] = None,
    ) -> "TransientRequest":
        """Validate every field and build a transient request.

        ``schedule`` is a sequence of ``{"t_s": seconds, "powers": {...}}``
        (or ``"total_power"``) entries with strictly increasing start times,
        the first at ``t_s=0``; it is mutually exclusive with the constant
        ``powers`` / ``total_power_W`` forms.  The request is bounded by
        :data:`MAX_TRANSIENT_STEPS` so one query cannot occupy the service
        for minutes.  ``deadline_ms`` is an optional latency budget relative
        to now; a trace whose budget expires mid-integration is shed (a 504,
        or a typed ``error`` frame once streaming has begun).  Raises
        :class:`ValueError` / :class:`KeyError` with messages safe to
        return to an API client.
        """
        chip_stack = _resolve_chip(chip, chips)
        resolution = validate_resolution(resolution)

        duration_s = _json_float(duration_s, "'duration_s'")
        dt_s = _json_float(dt_s, "'dt_s'")
        if not (math.isfinite(duration_s) and math.isfinite(dt_s)):
            # JSON parses 1e400 as infinity; int(round(inf/dt)) would raise
            # OverflowError past the 400 handling.
            raise ValueError("'duration_s' and 'dt_s' must be finite")
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("'duration_s' and 'dt_s' must be positive")
        if dt_s > duration_s:
            raise ValueError("'dt_s' must not exceed 'duration_s'")
        # Finite operands can still divide to infinity (1e308 / 1e-10).
        steps = duration_s / dt_s
        num_steps = int(round(steps)) if math.isfinite(steps) else math.inf
        if num_steps > MAX_TRANSIENT_STEPS:
            raise ValueError(
                f"the request asks for {num_steps} time steps; the service accepts "
                f"at most {MAX_TRANSIENT_STEPS} (raise dt_s or shorten duration_s)"
            )

        try:
            store_every = int(store_every)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"'store_every' must be an integer, got {store_every!r}")
        if store_every < 1:
            raise ValueError("'store_every' must be >= 1")

        validated_schedule: Tuple[Tuple[float, Mapping[str, float]], ...] = ()
        if schedule is not None:
            if powers is not None or total_power_W is not None:
                raise ValueError(
                    "specify either a 'schedule' or a constant 'powers'/'total_power', "
                    "not both"
                )
            if not isinstance(schedule, Sequence) or isinstance(schedule, (str, bytes)):
                raise ValueError("'schedule' must be a list of {t_s, powers} steps")
            if not schedule:
                raise ValueError("'schedule' must contain at least one step")
            steps = []
            previous_t = None
            for position, entry in enumerate(schedule):
                if not isinstance(entry, Mapping):
                    raise ValueError(
                        f"schedule step {position} must be an object with 't_s' and "
                        "'powers' (or 'total_power')"
                    )
                unknown = set(entry) - {"t_s", "powers", "total_power"}
                if unknown:
                    raise ValueError(
                        f"schedule step {position} has unknown fields: "
                        f"{', '.join(sorted(unknown))}"
                    )
                if "t_s" not in entry:
                    raise ValueError(f"schedule step {position} needs a numeric 't_s'")
                t_s = _json_float(entry["t_s"], f"schedule step {position} 't_s'")
                if not math.isfinite(t_s):
                    raise ValueError(
                        f"schedule step {position} 't_s' must be finite, got {t_s!r}"
                    )
                if position == 0 and t_s != 0.0:
                    raise ValueError("the first schedule step must start at t_s=0")
                if previous_t is not None and t_s <= previous_t:
                    raise ValueError("schedule step times must be strictly increasing")
                if t_s >= duration_s:
                    raise ValueError(
                        f"schedule step {position} starts at {t_s}s, beyond the "
                        f"{duration_s}s duration"
                    )
                previous_t = t_s
                step_total = entry.get("total_power")
                if step_total is not None:
                    step_total = _json_float(
                        step_total, f"schedule step {position} 'total_power'"
                    )
                step_assignment = _validate_assignment(
                    chip_stack, entry.get("powers"), step_total
                )
                steps.append((t_s, step_assignment))
            validated_schedule = tuple(steps)
            assignment = validated_schedule[0][1]
        else:
            assignment = _validate_assignment(chip_stack, powers, total_power_W)

        return cls(
            chip=chip_stack.name,
            resolution=resolution,
            duration_s=duration_s,
            dt_s=dt_s,
            assignment=assignment,
            schedule=validated_schedule,
            store_every=store_every,
            include_maps=bool(include_maps),
            request_id=request_id or f"req-{next(_REQUEST_COUNTER)}",
            deadline=_validate_deadline_ms(deadline_ms),
        )

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], chips: Optional[Any] = None
    ) -> "TransientRequest":
        """Build a request from a decoded JSON body (``/solve_transient``)."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        known_keys = {
            "chip", "resolution", "duration_s", "dt_s", "powers", "total_power",
            "schedule", "store_every", "include_maps", "request_id", "deadline_ms",
        }
        unknown = set(payload) - known_keys
        if unknown:
            raise ValueError(
                f"unknown request fields: {', '.join(sorted(unknown))}; "
                f"accepted: {', '.join(sorted(known_keys))}"
            )
        for required in ("chip", "duration_s", "dt_s"):
            if required not in payload:
                raise ValueError(f"request is missing the required '{required}' field")
        total_power = payload.get("total_power")
        if total_power is not None:
            total_power = _json_float(total_power, "'total_power'")
        return cls.create(
            chip=payload["chip"],
            duration_s=payload["duration_s"],
            dt_s=payload["dt_s"],
            powers=payload.get("powers"),
            total_power_W=total_power,
            schedule=payload.get("schedule"),
            resolution=payload.get("resolution", 32),
            store_every=payload.get("store_every", 1),
            include_maps=payload.get("include_maps", False),
            request_id=payload.get("request_id"),
            chips=chips,
            deadline_ms=payload.get("deadline_ms"),
        )


#: Deprecation alias: the serving result type and the Python API's answer
#: type are one class since the :mod:`repro.api` facade merged them.
ThermalResult = ThermalSolution
