"""Rule-evolution engine for PDDL games: parse, plan, rank, search, record."""

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
