"""Per-figure experiment regeneration drivers (Table I, Figs 10-12)."""

from . import ablations, bitpos, fig10, fig11, fig12, table1, vecdiff
from .common import CATEGORIES, ExperimentReport, SCALES, TARGETS, cell_seed

EXPERIMENTS = {
    "table1": table1,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "ablations": ablations,
    "bitpos": bitpos,
    "vecdiff": vecdiff,
}

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
