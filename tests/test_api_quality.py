"""API quality gates: docstrings, exports, and packaging markers.

Meta-tests that keep the library releasable: every public module, class
and function must carry a docstring; every ``__all__`` name must exist;
the typing marker must ship.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in _walk_modules() if not (m.__doc__ or "").strip()]
    assert missing == []


def test_every_public_class_and_function_documented():
    missing = []
    for module in _walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports documented at their home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
    assert missing == []


def test_all_exports_resolve():
    for module in _walk_modules():
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.__all__: {name}"


def test_top_level_all_covers_the_quickstart_api():
    for name in ("make_scheduler", "Link", "Simulator", "Packet", "HierarchicalScheduler"):
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_py_typed_marker_ships():
    assert (PACKAGE_ROOT / "py.typed").exists()


def test_public_schedulers_registered():
    for name in ("SFQ", "SCFQ", "WFQ", "FQS", "WF2Q", "DRR", "WRR", "FIFO",
                  "VirtualClock", "DelayEDD", "JitterEDD", "FairAirport"):
        assert name in repro.available_schedulers()


def test_version_is_set():
    assert repro.__version__
