"""Docstring lint for the public API surface.

A ``pydocstyle``-flavoured guard without the dependency: every public module,
class, function, method and property in :mod:`repro.api`,
:mod:`repro.serving` and :mod:`repro.runtime` must carry a non-empty
docstring.  The facade, the service and the runtime are the
surfaces other people program against; an undocumented symbol there is a
bug the same way a missing validation is.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.api
import repro.obs
import repro.runtime
import repro.serving

PACKAGES = (repro.api, repro.serving, repro.runtime, repro.obs)


def _iter_modules():
    for package in PACKAGES:
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if not info.name.startswith("_"):
                yield importlib.import_module(f"{package.__name__}.{info.name}")


def _module_names():
    return [module.__name__ for module in _iter_modules()]


def _public_members(owner, predicate):
    for name, member in inspect.getmembers(owner, predicate):
        if not name.startswith("_"):
            yield name, member


def _missing_docstrings():
    """Every public symbol of the audited packages lacking a docstring."""
    missing = []
    package_prefixes = tuple(package.__name__ for package in PACKAGES)
    for module in _iter_modules():
        if not (module.__doc__ or "").strip():
            missing.append(module.__name__)
        for name, member in _public_members(
            module, lambda m: inspect.isclass(m) or inspect.isfunction(m)
        ):
            # Only symbols defined inside the audited packages: re-exports
            # (numpy, chip designs, ...) are other modules' responsibility.
            if not (member.__module__ or "").startswith(package_prefixes):
                continue
            qualified = f"{module.__name__}.{name}"
            if not (member.__doc__ or "").strip():
                missing.append(qualified)
            if not inspect.isclass(member):
                continue
            for attr_name, attr in vars(member).items():
                if attr_name.startswith("_"):
                    continue
                target = None
                if isinstance(attr, property):
                    target = attr.fget
                elif isinstance(attr, (staticmethod, classmethod)):
                    target = attr.__func__
                elif inspect.isfunction(attr):
                    target = attr
                if target is not None and not (target.__doc__ or "").strip():
                    missing.append(f"{qualified}.{attr_name}")
    return sorted(set(missing))


def test_audited_packages_are_the_expected_ones():
    names = _module_names()
    assert "repro.api.session" in names
    assert "repro.api.pool" in names
    assert "repro.serving.engine" in names
    assert "repro.serving.server" in names
    assert "repro.runtime.plane" in names
    assert "repro.runtime.tasks" in names
    assert "repro.obs.bus" in names
    assert "repro.obs.metrics" in names


def test_every_public_symbol_has_a_docstring():
    missing = _missing_docstrings()
    assert not missing, (
        "public symbols without docstrings in repro.api / repro.serving:\n  "
        + "\n  ".join(missing)
    )


@pytest.mark.parametrize(
    "symbol",
    ["ThermalSession", "ThermalSolution", "ThermalBackend", "LRUPool", "ModelRegistry"],
)
def test_headline_api_symbols_are_documented(symbol):
    member = getattr(repro.api, symbol)
    assert (member.__doc__ or "").strip(), f"repro.api.{symbol} has no docstring"
