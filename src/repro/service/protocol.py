"""The service's wire vocabulary: submissions, status rows, SSE events.

One schema serves three consumers — the daemon's HTTP endpoints, the SSE
progress stream, and the CLI's ``--json`` output for ``status``/``report``
— so external tooling can consume a live stream and an offline store dump
interchangeably.

A *submission* names one campaign cell by content, never by location:
workload (registry name), target ISA, site category, engine, scale (or an
explicit config), and seed.  The daemon derives the campaign's
content-address — the same :func:`repro.store.keys.campaign_identity`
digest the store files experiments under — so identical submissions from
different tenants collapse onto one campaign, and a submission whose
campaign is already journaled is served from the store without executing
anything.  That cross-tenant sharing is sound *because* the key is a
content hash: two tenants naming the same (module IR, engine, category,
step limit, masks, seed, config) are asking for the same deterministic
experiment stream, bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..core.campaign import CampaignConfig, CampaignStats
from ..core.injector import DEFAULT_ENGINE, ENGINES
from ..core.parallel import EngineSpec
from ..errors import ReproError

#: Step budget for service campaigns — the fig11 driver's value, so a
#: submission's campaign key matches the cell a CLI ``fig11 --store`` run
#: would record (warm store hits across the two entry points).
STEP_LIMIT = 2_000_000

PRIORITY_MIN, PRIORITY_MAX = 1, 16

#: Experiment label service campaigns are manifested under.  Submissions
#: are fig11-shaped cells (benchmark x target x category campaigns to
#: convergence), so they reuse fig11's report builder and seeds.
EXPERIMENT = "fig11"


class BadSubmission(ReproError):
    """A submission payload that cannot be turned into a campaign."""


@dataclass(frozen=True)
class Submission:
    """One validated campaign submission."""

    workload: str
    target: str
    category: str
    engine: str
    scale: str
    seed: int
    tenant: str
    priority: int
    config: dict  # asdict(CampaignConfig) — part of the campaign identity

    @property
    def cell(self) -> dict:
        return {
            "benchmark": self.workload,
            "target": self.target,
            "category": self.category,
        }


def default_seed(workload: str, target: str, category: str) -> int:
    """The fig11 driver's seed for this cell (CLI/service parity)."""
    from ..experiments.common import cell_seed

    return cell_seed(EXPERIMENT, workload, target, category)


def normalize_submission(payload: dict) -> Submission:
    """Validate a raw JSON payload into a :class:`Submission`.

    Raises :class:`BadSubmission` with a message safe to return to the
    client; never touches the filesystem beyond the (cached) workload
    registry.
    """
    from ..experiments.common import CATEGORIES, SCALES, TARGETS
    from ..workloads.registry import all_workloads

    if not isinstance(payload, dict):
        raise BadSubmission("submission must be a JSON object")
    known = {
        "workload", "benchmark", "target", "category", "engine", "scale",
        "seed", "tenant", "priority",
    }
    unknown = set(payload) - known
    if unknown:
        raise BadSubmission(f"unknown submission fields: {sorted(unknown)}")

    workload = payload.get("workload", payload.get("benchmark"))
    names = {w.name for w in all_workloads()}
    if workload not in names:
        raise BadSubmission(
            f"unknown workload {workload!r}; available: {sorted(names)}"
        )
    target = payload.get("target", "avx")
    if target not in TARGETS:
        raise BadSubmission(f"target must be one of {TARGETS}, got {target!r}")
    category = payload.get("category", "pure-data")
    if category not in CATEGORIES:
        raise BadSubmission(
            f"category must be one of {CATEGORIES}, got {category!r}"
        )
    engine = payload.get("engine", DEFAULT_ENGINE)
    if engine not in ENGINES:
        raise BadSubmission(f"engine must be one of {ENGINES}, got {engine!r}")
    scale = payload.get("scale", "smoke")
    if scale not in SCALES:
        raise BadSubmission(
            f"scale must be one of {tuple(SCALES)}, got {scale!r}"
        )
    seed = payload.get("seed")
    if seed is None:
        seed = default_seed(workload, target, category)
    elif not isinstance(seed, int) or isinstance(seed, bool):
        raise BadSubmission(f"seed must be an integer, got {seed!r}")
    tenant = payload.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise BadSubmission("tenant must be a non-empty string (<= 64 chars)")
    priority = payload.get("priority", 1)
    if (
        not isinstance(priority, int)
        or isinstance(priority, bool)
        or not PRIORITY_MIN <= priority <= PRIORITY_MAX
    ):
        raise BadSubmission(
            f"priority must be an integer in "
            f"[{PRIORITY_MIN}, {PRIORITY_MAX}], got {priority!r}"
        )
    return Submission(
        workload=workload,
        target=target,
        category=category,
        engine=engine,
        scale=scale,
        seed=seed,
        tenant=tenant,
        priority=priority,
        config=asdict(SCALES[scale]),
    )


def spec_of(sub: Submission) -> EngineSpec:
    """The by-name engine recipe workers (and the parent cache) key on."""
    return EngineSpec(
        workload=sub.workload,
        target=sub.target,
        category=sub.category,
        engine=sub.engine,
        step_limit=STEP_LIMIT,
    )


def config_of(sub: Submission) -> CampaignConfig:
    return CampaignConfig(**sub.config)


def campaign_key_for(sub: Submission) -> str:
    """The submission's content address — identical to the store's.

    Composed without building an injector: the module fingerprint comes
    from the (cached) compiled workload, everything else from the
    submission itself.  Matches ``digest(campaign_identity(...))`` for the
    injector the runner will eventually build.
    """
    from ..store.keys import digest, module_fingerprint
    from ..workloads.registry import get_workload

    module = get_workload(sub.workload).compile(sub.target)
    identity = {
        "module": module_fingerprint(module),
        "engine": sub.engine,
        "category": sub.category,
        "step_limit": STEP_LIMIT,
        "respect_masks": True,
        "seed": sub.seed,
        "config": sub.config,
    }
    return digest(identity)


def build_manifest(sub: Submission, campaign_key: str) -> dict:
    """The accept-time campaign manifest for a submission.

    Field-identical to what :meth:`CampaignStore.recorder` would write
    when the campaign starts (minus run-time extras like ``static_sites``,
    which fold in later via the store's extras merge), so the daemon can
    land — and fsync — the manifest *before* acknowledging the submission:
    an accepted campaign survives ``kill -9`` even if it never started.
    """
    from ..store.keys import module_fingerprint
    from ..workloads.registry import (
        REGISTRY_VERSION,
        get_workload,
        registry_fingerprint,
    )

    module = get_workload(sub.workload).compile(sub.target)
    config = config_of(sub)
    return {
        "kind": "campaign",
        "campaign_key": campaign_key,
        "experiment": EXPERIMENT,
        "cell": sub.cell,
        "scale": sub.scale,
        "module": module_fingerprint(module),
        "engine": sub.engine,
        "category": sub.category,
        "step_limit": STEP_LIMIT,
        "respect_masks": True,
        "seed": sub.seed,
        "config": sub.config,
        "registry_version": REGISTRY_VERSION,
        "registry_fingerprint": registry_fingerprint(),
        "planned": config.max_campaigns * config.experiments_per_campaign,
        "extras": {"tenant": sub.tenant, "priority": sub.priority},
        "completed": False,
        "executed": None,
        "converged": None,
    }


def submission_from_manifest(manifest: dict) -> Submission | None:
    """Reconstruct a submission from a stored manifest (crash recovery).

    Returns ``None`` for manifests the service cannot re-run (non-fig11
    experiments, or cells missing the fig11 coordinates).
    """
    if manifest.get("experiment") != EXPERIMENT:
        return None
    cell = manifest.get("cell", {})
    if not {"benchmark", "target", "category"} <= set(cell):
        return None
    extras = manifest.get("extras", {})
    return Submission(
        workload=cell["benchmark"],
        target=cell["target"],
        category=cell["category"],
        engine=manifest["engine"],
        scale=manifest["scale"],
        seed=manifest["seed"],
        tenant=extras.get("tenant", "recovery"),
        priority=extras.get("priority", 1),
        config=dict(manifest["config"]),
    )


# -- status rows (shared by `status --json`, /v1/status, and SSE) --------------


def totals_dict(stats: CampaignStats) -> dict:
    """Outcome totals in the one shape every consumer reads."""
    return {
        "sdc": stats.sdc,
        "benign": stats.benign,
        "crash": stats.crash,
        "detected": stats.detected_total,
        "total": stats.total,
    }


def campaign_row(store, manifest: dict, live: dict | None = None) -> dict:
    """One campaign cell's machine-readable status row.

    Aggregates outcome totals from the journaled records (bit-exact — the
    store holds the full result stream), so an offline ``status --json``
    reports exactly what the SSE stream's final event carried.  ``live``
    (the daemon's in-memory view: state, hit/miss counters) overlays the
    store-derived fields when present.
    """
    from ..store.records import decode_result

    key = manifest["campaign_key"]
    records = store.experiments_for(key)
    stats = CampaignStats()
    for record in records:
        stats.add(decode_result(record["result"]))
    if manifest["completed"]:
        state = "complete"
    elif records:
        state = "partial"
    else:
        state = "pending"
    row = {
        "campaign": key,
        "experiment": manifest["experiment"],
        "cell": dict(manifest["cell"]),
        "scale": manifest["scale"],
        "engine": manifest["engine"],
        "seed": manifest["seed"],
        "state": state,
        "done": len(records),
        "planned": manifest["planned"],
        "executed": manifest["executed"],
        "converged": manifest["converged"],
        "totals": totals_dict(stats),
        "tenant": manifest.get("extras", {}).get("tenant"),
        "priority": manifest.get("extras", {}).get("priority"),
    }
    if live:
        row.update(live)
    return row


def status_payload(store, live_states: dict | None = None) -> dict:
    """The whole store as status rows — `status --json` and /v1/status."""
    live_states = live_states or {}
    rows = [
        campaign_row(store, manifest, live_states.get(manifest["campaign_key"]))
        for manifest in store.manifests()
    ]
    cells = store.cells()
    return {
        "store": str(store.root),
        "schema": SCHEMA_VERSION,
        "campaigns": rows,
        "memoized_cells": len(cells),
    }


#: Bumped when the row/event shapes change incompatibly; clients check it.
SCHEMA_VERSION = 1
