"""Every name a package lists in ``__all__`` must resolve on that package."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.common",
    "repro.core",
    "repro.dva",
    "repro.engine",
    "repro.isa",
    "repro.memory",
    "repro.refarch",
    "repro.service",
    "repro.store",
    "repro.trace",
    "repro.workloads",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_all_entry_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
