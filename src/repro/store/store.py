"""The campaign store: a durable, content-addressed experiment database.

On disk a store is a directory::

    <root>/STORE           format marker (refuses to adopt foreign dirs)
    <root>/journal.jsonl   crc-framed experiment + cell records, append-only
    <root>/manifests.jsonl crc-framed campaign/cell manifests, append-only

Both journals share the framing in :mod:`repro.store.journal`; the index
(``key -> record``) is rebuilt from the journals at open, so "already
done?" is an O(1) dict probe from then on and a crash can never leave a
stale index behind — there is no on-disk index to invalidate.

Record kinds:

* ``campaign`` (manifests journal) — pins one campaign cell's identity:
  module content hash, engine, category, seed, config fingerprint, the
  workload-registry version/fingerprint, planned experiment budget, and —
  re-appended at completion (last manifest wins) — the executed total and
  convergence flag.
* ``experiment`` (journal) — one fault-injection experiment: its content
  key, campaign key, schedule position ``seq``, the drawn ``(k, bit,
  params)`` triple, and the bit-exact result record.
* ``cell`` (journal) — one whole result cell of a non-campaign experiment
  (table1 / fig10 / bitpos / ablations rows), memoized by content key.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from collections import Counter

from .journal import Journal, StoreError
from .keys import campaign_identity, digest
from .recorder import CampaignRecorder
from .records import decode_rows, encode_rows
from .shard import ShardSpec, read_shard_file, write_shard_file

FORMAT = "repro-campaign-store-v1"


class CampaignStore:
    """Durable, resumable campaign persistence rooted at a directory.

    One store object is safe to share between threads: journal appends are
    frame-atomic (see :class:`~repro.store.journal.Journal`) and the
    in-memory index is guarded by an internal lock, so concurrent
    recorders (the campaign service runs many tenants' campaigns over one
    store) never corrupt the index a reader is iterating.  ``durable=True``
    fsyncs every journal flush — the service's accepted-submission
    acknowledgement rests on it.
    """

    def __init__(
        self, root: str | Path, flush_every: int = 16, durable: bool = False
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / "STORE"
        if marker.exists():
            found = marker.read_text().strip()
            if found != FORMAT:
                raise StoreError(
                    f"{self.root} is a {found!r} store; this build reads "
                    f"{FORMAT!r}"
                )
        else:
            if any(self.root.iterdir()):
                raise StoreError(
                    f"{self.root} exists, is not empty, and has no STORE "
                    f"marker; refusing to adopt it as a campaign store"
                )
            _atomic_write_text(marker, FORMAT + "\n")
        self._journal = Journal(
            self.root / "journal.jsonl", flush_every, durable=durable
        )
        # Manifests are rare and pin resumability; land them immediately.
        self._manifests_journal = Journal(
            self.root / "manifests.jsonl", 1, durable=durable
        )
        #: Guards the in-memory index (experiments/cells/manifests dicts)
        #: against concurrent recorder writes vs. status/report reads.
        #: Reentrant: readers like ``status_rows`` call other locked
        #: accessors.
        self._index_lock = threading.RLock()
        self._experiments: dict[str, dict] = {}
        self._by_campaign: dict[str, dict[int, dict]] = {}
        self._cells: dict[str, dict] = {}
        self._manifests: dict[str, dict] = {}
        #: Replay hits / executed misses across every recorder this process
        #: opened on the store — what a shard run persists for the merge
        #: tool's per-shard accounting (see :meth:`save_shard_state`).
        self.session_counters: Counter = Counter()
        self._shard: ShardSpec | None = read_shard_file(self.root)
        for record in self._manifests_journal.load():
            self._index_manifest(record)
        for record in self._journal.load():
            self._index_record(record)

    # -- indexing --------------------------------------------------------------

    def _index_manifest(self, record: dict) -> None:
        with self._index_lock:
            self._manifests[record["campaign_key"]] = record

    def _index_record(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "experiment":
            with self._index_lock:
                self._experiments[record["key"]] = record
                self._by_campaign.setdefault(record["campaign"], {})[
                    record["seq"]
                ] = record
        elif kind == "cell":
            # The index holds live values; floats travel as bit patterns
            # only on disk (see records.encode_rows).
            with self._index_lock:
                self._cells[record["key"]] = {
                    **record,
                    "rows": decode_rows(record["rows"]),
                }

    # -- campaign recording ----------------------------------------------------

    def recorder(
        self,
        *,
        experiment: str,
        cell: dict,
        scale: str,
        injector,
        seed: int,
        config: dict,
        planned: int,
        extras: dict | None = None,
        abort_after: int | None = None,
    ) -> CampaignRecorder:
        """Build (and immediately manifest) a recorder for one campaign cell.

        The manifest lands on disk *now*, before any experiment executes,
        so an interrupted sweep leaves a complete inventory of every cell
        it intended to run — ``resume`` neither shrinks a crashed-early
        sweep nor expands a ``--benchmark``-restricted one.
        """
        from ..workloads.registry import REGISTRY_VERSION, registry_fingerprint

        identity = campaign_identity(injector, seed, config)
        campaign_key = digest(identity)
        manifest = {
            "kind": "campaign",
            "campaign_key": campaign_key,
            "experiment": experiment,
            "cell": dict(cell),
            "scale": scale,
            **identity,
            "registry_version": REGISTRY_VERSION,
            "registry_fingerprint": registry_fingerprint(),
            "planned": planned,
            "extras": dict(extras or {}),
            "completed": False,
            "executed": None,
            "converged": None,
        }
        with self._index_lock:
            existing = self._manifests.get(campaign_key)
            if existing is not None and (
                existing["registry_version"] != manifest["registry_version"]
                or existing["registry_fingerprint"]
                != manifest["registry_fingerprint"]
            ):
                raise StoreError(
                    f"workload registry changed since campaign "
                    f"{campaign_key[:12]} was recorded (version "
                    f"{existing['registry_version']} -> "
                    f"{manifest['registry_version']}); resuming would splice "
                    f"results from different workloads — use a fresh store"
                )
            if existing is not None:
                # Keep the recorded progress fields (identity already
                # matches — the key is a digest of it) but fold in any
                # fresher extras, e.g. an overhead measured on this run but
                # not the crashed one.
                merged_extras = {**existing.get("extras", {}), **(extras or {})}
                if merged_extras != existing.get("extras"):
                    existing = {**existing, "extras": merged_extras}
                    self.add_manifest(existing)
                manifest = self._manifests[campaign_key]
            else:
                self.add_manifest(manifest)
        return CampaignRecorder(self, manifest, abort_after=abort_after)

    def add_manifest(self, manifest: dict) -> None:
        with self._index_lock:
            if self._manifests.get(manifest["campaign_key"]) == manifest:
                return
            self._manifests_journal.append(manifest)
            self._manifests_journal.flush()
            self._index_manifest(manifest)

    def lookup_experiment(self, key: str) -> dict | None:
        with self._index_lock:
            return self._experiments.get(key)

    # -- shard assignment ------------------------------------------------------

    def shard_spec(self) -> ShardSpec | None:
        """This store's stripe of a sharded sweep (``None``: a full store)."""
        return self._shard

    def set_shard(self, spec: ShardSpec) -> None:
        """Pin this store as one stripe of a sharded sweep.

        Refuses to reassign an already-pinned store to a different stripe —
        the journal would interleave two partitions and never merge.
        """
        write_shard_file(self.root, spec)
        self._shard = spec

    def save_shard_state(self) -> None:
        """Persist this session's hit/miss counters into ``shard.json``.

        The counters are advisory provenance for ``merge``'s per-shard
        report (the journal itself is the source of truth for records);
        repeated sessions accumulate.
        """
        if self._shard is None:
            return
        import json

        path = self.root / "shard.json"
        data = {"index": self._shard.index, "count": self._shard.count}
        if path.exists():
            data = json.loads(path.read_text())
        counters = Counter(data.get("counters", {}))
        counters.update(self.session_counters)
        data["counters"] = dict(counters)
        _atomic_write_text(path, json.dumps(data, sort_keys=True) + "\n")
        # Persisted — start the next accumulation window from zero so a
        # second save in the same session cannot double-count.
        self.session_counters.clear()

    def record_experiment(self, record: dict) -> None:
        self._journal.append(record)
        self._index_record(record)

    # -- cell memoization (non-campaign experiments) ---------------------------

    def lookup_cell(self, key: str) -> dict | None:
        with self._index_lock:
            return self._cells.get(key)

    def record_cell(
        self, key: str, experiment: str, scale: str, cell: dict, rows: list[dict]
    ) -> None:
        record = {
            "kind": "cell",
            "key": key,
            "experiment": experiment,
            "scale": scale,
            "cell": dict(cell),
            "rows": encode_rows(list(rows)),
        }
        self._journal.append(record)
        self._journal.flush()
        self._index_record(record)

    # -- queries ---------------------------------------------------------------

    def manifests(self, experiment: str | None = None) -> list[dict]:
        """Campaign manifests in recording order."""
        with self._index_lock:
            out = list(self._manifests.values())
        if experiment is not None:
            out = [m for m in out if m["experiment"] == experiment]
        return out

    def experiments_for(self, campaign_key: str) -> list[dict]:
        """A campaign's experiment records in schedule order."""
        with self._index_lock:
            by_seq = dict(self._by_campaign.get(campaign_key, {}))
        return [by_seq[seq] for seq in sorted(by_seq)]

    def experiment_at(self, campaign_key: str, seq: int) -> dict | None:
        """The experiment record stored at a campaign's schedule position."""
        with self._index_lock:
            return self._by_campaign.get(campaign_key, {}).get(seq)

    def experiment_count(self, campaign_key: str) -> int:
        with self._index_lock:
            return len(self._by_campaign.get(campaign_key, {}))

    def cells(self, experiment: str | None = None) -> list[dict]:
        with self._index_lock:
            out = list(self._cells.values())
        if experiment is not None:
            out = [c for c in out if c["experiment"] == experiment]
        return out

    def stored_experiments(self) -> list[str]:
        """Distinct experiment names present, in first-recorded order."""
        names: dict[str, None] = {}
        with self._index_lock:
            for manifest in self._manifests.values():
                names.setdefault(manifest["experiment"])
            for cell in self._cells.values():
                names.setdefault(cell["experiment"])
        return list(names)

    # -- status / resume -------------------------------------------------------

    def status_rows(self) -> list[dict]:
        """One progress row per campaign cell plus per cell-group.

        On a shard store, ``planned`` is this stripe's share of the global
        budget (the manifest pins the whole sweep's budget so merge can
        check coverage; the shard only ever executes its stripe of it);
        the global figure rides along as ``global_planned``.
        """
        rows = []
        for manifest in self.manifests():
            done = self.experiment_count(manifest["campaign_key"])
            planned = global_planned = manifest["planned"]
            if self._shard is not None:
                planned = self._shard.stripe_size(global_planned)
            if manifest["completed"]:
                state = "complete"
                planned = manifest["executed"]
            elif done:
                state = "partial"
            else:
                state = "pending"
            rows.append(
                {
                    "experiment": manifest["experiment"],
                    "cell": "/".join(
                        str(v) for v in manifest["cell"].values()
                    ),
                    "scale": manifest["scale"],
                    "engine": manifest["engine"],
                    "done": done,
                    "planned": planned,
                    "global_planned": global_planned,
                    "state": state,
                }
            )
        groups: dict[tuple, int] = {}
        for cell in self.cells():
            key = (cell["experiment"], cell["scale"])
            groups[key] = groups.get(key, 0) + 1
        for (experiment, scale), count in sorted(groups.items()):
            rows.append(
                {
                    "experiment": experiment,
                    "cell": f"{count} result cells",
                    "scale": scale,
                    "engine": "-",
                    "done": count,
                    "planned": count,
                    "state": "cached",
                }
            )
        return rows

    def render_status(self) -> str:
        from ..analysis.report import render_table

        rows = self.status_rows()
        if not rows:
            return f"{self.root}: empty store"
        table = render_table(
            ["experiment", "cell", "scale", "engine", "done", "planned", "state"],
            [
                [
                    r["experiment"],
                    r["cell"],
                    r["scale"],
                    r["engine"],
                    r["done"],
                    r["planned"],
                    r["state"],
                ]
                for r in rows
            ],
            title=f"Campaign store {self.root}",
        )
        pending = sum(1 for r in rows if r["state"] in ("partial", "pending"))
        footer = (
            f"\n\n{pending} cell(s) incomplete — run `resume --store "
            f"{self.root}` to finish them."
            if pending
            else "\n\nall cells complete."
        )
        return table + footer

    def resume_plans(self) -> list[dict]:
        """Driver invocations that would complete this store.

        One plan per (experiment, scale, engine) group of campaign
        manifests — covering *all* manifested cells, finished or not
        (finished ones replay from the index at no injection cost) — plus
        one per cell-group for the memoized experiments.
        """
        plans: dict[tuple, dict] = {}
        for manifest in self.manifests():
            if manifest["scale"] not in ("smoke", "quick", "full"):
                # Recorded through the API with a custom config; the CLI
                # cannot reconstruct that schedule.
                continue
            key = (manifest["experiment"], manifest["scale"], manifest["engine"])
            plan = plans.setdefault(
                key,
                {
                    "experiment": manifest["experiment"],
                    "scale": manifest["scale"],
                    "engine": manifest["engine"],
                    "benchmarks": set(),
                },
            )
            benchmark = manifest["cell"].get("benchmark")
            if benchmark is not None:
                plan["benchmarks"].add(benchmark)
        out = []
        for plan in plans.values():
            plan["benchmarks"] = sorted(plan["benchmarks"]) or None
            out.append(plan)
        seen_cells = {
            (c["experiment"], c["scale"]) for c in self.cells()
        }
        for experiment, scale in sorted(seen_cells):
            if scale not in ("smoke", "quick", "full"):
                continue
            out.append(
                {
                    "experiment": experiment,
                    "scale": scale,
                    "engine": None,
                    "benchmarks": None,
                }
            )
        return out

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        self._journal.flush()
        self._manifests_journal.flush()

    def close(self) -> None:
        self._journal.close()
        self._manifests_journal.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via temp file + ``os.replace`` so readers never see a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
