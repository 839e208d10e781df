"""Shared experiment machinery: scales, seeds, result containers.

Every experiment is deterministic given (scale, seed): per-cell RNGs are
derived from a stable hash of the cell coordinates, so partial reruns
reproduce the same numbers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..core.campaign import CampaignConfig
from ..core.injector import DEFAULT_ENGINE, FaultInjector
from ..core.parallel import ExperimentPool, WorkerContext
from ..workloads.registry import Workload, build_runner

#: Experiment scale presets.  The paper runs 20 campaigns x 100 experiments
#: per cell (108,000 total injections for Fig. 11); the reduced presets keep
#: the estimator identical and shrink only the sample budget.
SCALES: dict[str, CampaignConfig] = {
    "smoke": CampaignConfig(experiments_per_campaign=8, max_campaigns=1, min_campaigns=1),
    "quick": CampaignConfig(experiments_per_campaign=25, max_campaigns=3, min_campaigns=2),
    "full": CampaignConfig(experiments_per_campaign=100, max_campaigns=20, min_campaigns=3),
}

#: Per-category experiment counts for the Fig. 12 micro-benchmark study
#: (the paper uses 2000 per micro-benchmark per category).
FIG12_EXPERIMENTS = {"smoke": 40, "quick": 150, "full": 2000}

#: Golden-run samples per benchmark for Table I's average dynamic counts.
TABLE1_SAMPLES = {"smoke": 2, "quick": 5, "full": 20}

TARGETS = ("avx", "sse")
CATEGORIES = ("pure-data", "control", "address")

BASE_SEED = 20160516  # the venue's year+month, fixed once


def cell_seed(*coords) -> int:
    """A stable 32-bit seed for one experiment cell."""
    text = ":".join(str(c) for c in (BASE_SEED, *coords))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def cell_injector(
    workload: Workload,
    target: str,
    category: str,
    step_limit: int = 2_000_000,
    engine: str = DEFAULT_ENGINE,
    checkpoint_interval: int | None = None,
) -> FaultInjector:
    """The engine for one (workload, ISA, site category) campaign cell."""
    return FaultInjector(
        workload.compile(target), category=category, step_limit=step_limit,
        engine=engine, checkpoint_interval=checkpoint_interval,
    )


def campaign_worker_context(
    injector: FaultInjector, workload: Workload, with_detectors: bool = False
) -> WorkerContext:
    """Build the picklable context for running ``--jobs > 1`` campaigns.

    Ships the injector's pristine-module payload plus a by-name runner
    builder; with ``with_detectors`` each worker also instantiates its own
    detector bindings factory (the factory itself is a closure and cannot
    travel pickled).
    """
    maker = None
    if with_detectors:
        from ..detectors.runtime import detector_bindings_factory

        maker = functools.partial(detector_bindings_factory)
    return WorkerContext(
        injector=injector.worker_payload(),
        make_runner=functools.partial(build_runner, workload.name),
        bindings_factory_maker=maker,
    )


@contextmanager
def open_sweep(keys, jobs: int, store, build, with_detectors: bool = False):
    """Set up a sweep's shared state; yield each cell's ``run_cell`` keywords.

    ``build(key)`` returns the cell's ``(workload, injector, recorder)``,
    the recorder ``None`` without a ``store``.  With ``jobs > 1`` or a
    ``store``, every cell is built in the parent upfront: one
    :class:`ExperimentPool` forks once with every cell's worker context
    instead of re-spawning (and re-pickling modules) per cell, and every
    cell's manifest lands before the first injection, so a crash mid-sweep
    leaves a complete inventory for ``resume``.  Otherwise nothing is built
    here and each cell builds its own injector when it runs.
    """
    injectors: dict = {}
    recorders: dict = {}
    contexts: dict = {}
    if jobs > 1 or store is not None:
        for key in keys:
            workload, injectors[key], recorders[key] = build(key)
            contexts[key] = campaign_worker_context(
                injectors[key], workload, with_detectors
            )
    pool = ExperimentPool(jobs, contexts) if jobs > 1 else None

    def cell_kwargs(key) -> dict:
        return {
            "injector": injectors.get(key),
            "recorder": recorders.get(key),
            "pool": pool.cell(key) if pool is not None else None,
        }

    try:
        yield cell_kwargs
    finally:
        if pool is not None:
            pool.close()
        if store is not None:
            store.flush()


@dataclass
class ExperimentReport:
    """A rendered experiment: table text plus machine-readable rows."""

    name: str
    scale: str
    headers: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    def save(self, path: str | Path) -> None:
        """Write the report atomically: a crash mid-save never leaves a
        half-written ``results/*.json`` behind (the reader sees either the
        old file or the complete new one)."""
        path = Path(path)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(self.to_json())
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
