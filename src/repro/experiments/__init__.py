"""Per-figure experiment regeneration drivers (Table I, Figs 10-12).

Each driver module loads on first use, through :data:`EXPERIMENTS` or as
an attribute of this package: a process running one experiment (or the
campaign service) never imports the others.
"""

from collections.abc import Iterator, Mapping
from importlib import import_module
from types import ModuleType

from .common import CATEGORIES, ExperimentReport, SCALES, TARGETS, cell_seed

#: Driver module names, in the order ``all`` runs them.
_DRIVERS = ("table1", "fig10", "fig11", "fig12", "ablations", "bitpos", "vecdiff")


class _Drivers(Mapping):
    """Experiment name -> driver module, imported on first lookup."""

    def __getitem__(self, name: str) -> ModuleType:
        if name not in _DRIVERS:
            raise KeyError(name)
        return import_module(f"{__name__}.{name}")

    def __iter__(self) -> Iterator[str]:
        return iter(_DRIVERS)

    def __len__(self) -> int:
        return len(_DRIVERS)


EXPERIMENTS: Mapping[str, ModuleType] = _Drivers()


def __getattr__(name: str) -> ModuleType:
    if name in _DRIVERS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CATEGORIES",
    "ExperimentReport",
    "SCALES",
    "TARGETS",
    "cell_seed",
    "EXPERIMENTS",
    "ablations",
    "bitpos",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "vecdiff",
]
