"""Every name in every ``repro`` module's ``__all__`` resolves.

A dangling export otherwise surfaces only at ``from repro... import *``.
``__main__`` modules are skipped: importing ``repro.lint.__main__``
runs the linter.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [
        export
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
