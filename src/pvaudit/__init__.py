"""pvaudit: reliability auditing for meta-analyses.

Reconstructs test statistics from reported confidence intervals, draws and
classifies p-value diagnostic plots, counts per-study analysis search
spaces, pools effects under a random-effects model, and simulates
literatures with selective reporting, all with deterministic outputs.
"""

__version__ = "0.1.0"

_MODULES = ("model", "stats", "diagnostics", "counting", "sim")


def __getattr__(name):
    # A submodule loads on first use of it. Any other name loads the modules
    # of _MODULES in order until one lists the name in its __all__.
    from importlib import import_module

    if name == "__all__":
        return ["__version__", *(n for m in _MODULES for n in __getattr__(m).__all__)]
    try:
        return import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *__getattr__("__all__")]
