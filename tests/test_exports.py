"""Every name a ``repro`` package exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.") if info.ispkg])


def test_every_package_is_listed():
    assert "repro.serving" in PACKAGES
    assert "repro.cluster" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", ())
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
