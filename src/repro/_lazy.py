"""Lazy re-exports for the package ``__init__`` modules (PEP 562): each
re-exported name is imported from its submodule on first access, so
``import repro.analysis`` loads no service or telemetry-server code."""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, List[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, which
    re-exports ``exports[submodule]`` from each (relative) submodule."""
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    class _Package(types.ModuleType):
        def __setattr__(self, name: str, value: Any) -> None:
            # Importing a submodule binds it on the package; a function
            # re-exported under its submodule's name (``explore`` from
            # ``.explore``) keeps the name, as an eager import leaves it.
            if isinstance(value, types.ModuleType):
                if origin.get(name) == "." + name:
                    value = getattr(value, name)
            super().__setattr__(name, value)

    sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(origin[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
