"""SAU-FNO: Self-Attention U-Net Fourier Neural Operator for 3D-IC thermal simulation.

A from-scratch reproduction of the DAC 2025 paper "Self-Attention to Operator
Learning-based 3D-IC Thermal Simulation", including every substrate the paper
depends on: a NumPy autodiff engine and neural-network library, steady-state
finite-volume and compact (HotSpot-style) thermal solvers, the three 3D-IC
benchmark chips, the SAU-FNO model and its baselines (FNO, U-FNO, DeepOHeat,
GAR), multi-fidelity transfer learning, and the experiment harness that
regenerates every table and figure of the paper's evaluation.

The domain API is one import away::

    import repro

    session = repro.ThermalSession()
    answer = session.solve("chip1", total_power_W=60, backend="fvm")

Domain names (:class:`ThermalSession`, :func:`get_chip`, solvers, the
operator factory...) are re-exported lazily so ``import repro`` stays fast —
SciPy and the solver stack only load when first touched.
"""

__version__ = "1.1.0"


def _pin_allocator_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the whole process.

    glibc serves blocks above its mmap threshold (128 KiB by default) with
    fresh ``mmap`` pages, unmaps them on ``free``, and raises the threshold
    only after such a block is freed.  Nothing in this package frees one
    early (building a block basis factorises nothing), so a process would
    fault in every page of every large array on every step: ~2,750 minor
    faults per ``tiny`` SAU-FNO training step, against ~10 with the
    thresholds pinned.  The mmap threshold goes to 32 MiB (glibc's
    maximum on 64-bit), so those arrays come from the heap, and the trim
    threshold to 64 MiB, so the freed heap top stays for the next step.  A
    no-op where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's <malloc.h> values
    mallopt(m_mmap_threshold, 32 * 1024 * 1024)
    mallopt(m_trim_threshold, 64 * 1024 * 1024)


_pin_allocator_thresholds()

from repro import autodiff, nn, optim

#: Lazily resolved domain exports: name -> (module, attribute).
_LAZY_EXPORTS = {
    # The facade
    "ThermalSession": ("repro.api.session", "ThermalSession"),
    "ThermalSolution": ("repro.api.solution", "ThermalSolution"),
    "ThermalBackend": ("repro.api.backends", "ThermalBackend"),
    "TrainedOperator": ("repro.api.session", "TrainedOperator"),
    "get_session": ("repro.api.session", "get_session"),
    # Chips
    "ChipStack": ("repro.chip.stack", "ChipStack"),
    "get_chip": ("repro.chip.designs", "get_chip"),
    "list_chips": ("repro.chip.designs", "list_chips"),
    # Solvers
    "FVMSolver": ("repro.solvers.fvm", "FVMSolver"),
    "HotSpotModel": ("repro.solvers.hotspot", "HotSpotModel"),
    "TransientFVMSolver": ("repro.solvers.transient", "TransientFVMSolver"),
    # Operators
    "build_operator": ("repro.operators.factory", "build_operator"),
    "load_operator": ("repro.operators.factory", "load_operator"),
    "save_operator": ("repro.operators.factory", "save_operator"),
    # Data and training
    "generate_dataset": ("repro.data.generation", "generate_dataset"),
    "ThermalDataset": ("repro.data.dataset", "ThermalDataset"),
    "PowerSampler": ("repro.data.power", "PowerSampler"),
    "Trainer": ("repro.training.trainer", "Trainer"),
    "TrainingConfig": ("repro.training.trainer", "TrainingConfig"),
}

__all__ = ["autodiff", "nn", "optim", "__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str):
    """PEP 562 lazy attribute access for the domain API."""
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute '{name}'")
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache so the next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
