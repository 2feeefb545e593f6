"""Every name a package exports in ``__all__`` resolves on that package."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.gp",
    "repro.obs",
    "repro.data",
    "repro.machine",
    "repro.mesh",
    "repro.amr",
    "repro.solver",
    "repro.faults",
    "repro.analysis",
    "repro.policy",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
