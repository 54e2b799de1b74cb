"""Rule-evolution engine for PDDL games: parse, plan, rank, search, record."""

import math
from dataclasses import fields

__version__ = "0.1.0"


def lazy_exports(namespace: dict, exports: dict) -> tuple:
    """A package's PEP 562 `__getattr__` and `__dir__`: each name in
    `exports` (name -> submodule) is looked up in its submodule on first use,
    `namespace` being the package's globals."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        # Not cached in the package: the submodule's attribute is the one
        # object, so a wrapper put there and taken away again leaves no trace.
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{package}.{exports[name]}"), name)

    def __dir__() -> list:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


def bounded(low, high=math.inf) -> dict:
    """Metadata of a settings field whose value must lie in [low, high]."""
    return {"bounds": (low, high)}


def out_of_bounds(value, low, high=math.inf) -> str | None:
    """Why `value` is not a finite number in [low, high], or None."""
    if not -math.inf < value < math.inf:
        return f"must be finite, got {value}"
    if not low <= value <= high:
        bound = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
        return f"must be {bound}, got {value}"
    return None


def check_bounds(settings) -> None:
    """A settings dataclass's `__post_init__`: `ValueError` naming the first
    field outside its `bounded` range."""
    for f in fields(settings):
        problem = "bounds" in f.metadata and out_of_bounds(getattr(settings, f.name), *f.metadata["bounds"])
        if problem:
            raise ValueError(f"{f.name} {problem}")
