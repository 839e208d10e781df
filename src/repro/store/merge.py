"""``store merge``: reassemble N shard journals into the serial journal.

The merge invariant: because experiment records are pure functions of
campaign identity + schedule position (``--shards``, like ``--jobs``,
never enters the key), the union of N disjoint schedule stripes *is* the
single-host serial journal — and because :func:`repro.store.journal.frame`
is deterministic (sorted keys, compact separators, floats as bit
patterns), the shard journals' verbatim frames, laid out in schedule
order, reproduce the serial file **byte for byte**.  The merged store is
indistinguishable from one a ``--shards 1`` run wrote locally: ``report``
rebuilds the figures from it alone.

The merge refuses rather than guesses: torn shard tails (resume that
shard, don't repair here), shard-count or stripe-assignment disagreements,
campaign manifests that differ in anything but completion progress
(including the workload-registry fingerprint), incomplete shards, and
overlapping or missing schedule positions each abort with a message naming
the offending shard.  Output files land atomically (``mkstemp`` + fsync +
``os.replace``, the :meth:`ExperimentReport.save` idiom) and the final
step re-verifies the merged store with :func:`repro.store.verify.
verify_store`.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .journal import StoreError, frame, scan_frames, scan_framed_lines
from .shard import ShardSpec, find_shard_dirs, read_shard_file
from .verify import VerifyReport, verify_store

#: Manifest fields a shard legitimately completes differently from the
#: merged whole; everything else must be identical across shards.
_PROGRESS_FIELDS = ("completed", "executed", "converged")


@dataclass
class ShardMergeRow:
    """Per-shard accounting for the merge report."""

    spec: ShardSpec
    path: Path
    records: int
    hits: int
    misses: int
    outcomes: Counter
    seconds: float | None = None


@dataclass
class MergeReport:
    out: Path
    shards: list[ShardMergeRow]
    campaigns: int
    records: int
    outcomes: Counter
    journal_bytes: int
    verify: VerifyReport

    def render(self) -> str:
        from ..analysis.report import render_table

        outcome_names = sorted(self.outcomes)
        rows = []
        for row in self.shards:
            rows.append(
                [row.spec.spec, row.records, row.hits, row.misses]
                + [row.outcomes.get(name, 0) for name in outcome_names]
            )
        rows.append(
            ["merged", self.records, sum(r.hits for r in self.shards),
             sum(r.misses for r in self.shards)]
            + [self.outcomes.get(name, 0) for name in outcome_names]
        )
        table = render_table(
            ["shard", "records", "hits", "misses"] + outcome_names,
            rows,
            title=f"Merged {len(self.shards)} shard(s) -> {self.out}",
        )
        tail = (
            f"\n\n{self.campaigns} campaign(s), {self.records} record(s), "
            f"{self.journal_bytes} journal byte(s); verify: "
            f"{'OK' if self.verify.ok else 'FAILED'}"
        )
        return table + tail


@dataclass
class _LoadedShard:
    spec: ShardSpec
    path: Path
    manifest_order: list[str]
    manifests: dict[str, dict]
    #: campaign key -> seq -> (record, its verbatim journal frame)
    records: dict[str, dict[int, tuple[dict, bytes]]]
    counters: dict


def _load_shard(path: Path) -> _LoadedShard:
    spec = read_shard_file(path)
    if spec is None:
        raise StoreError(
            f"{path} has no shard.json — it is a plain store, not one "
            f"stripe of a sharded sweep"
        )
    expected_index = int(path.name.rsplit("-", 1)[1])
    if spec.index != expected_index:
        raise StoreError(
            f"{path} says it is shard {spec.spec} but sits in the "
            f"shard-{expected_index} directory; refusing a mislabeled stripe"
        )
    marker = path / "STORE"
    if not marker.exists():
        raise StoreError(f"{path}: no STORE marker; not a campaign store")
    try:
        manifests = scan_frames(path / "manifests.jsonl")
        journal = scan_framed_lines(path / "journal.jsonl")
    except StoreError as exc:
        raise StoreError(f"shard {spec.spec}: {exc}") from exc

    manifest_order: list[str] = []
    manifest_map: dict[str, dict] = {}
    for manifest in manifests:
        key = manifest["campaign_key"]
        if key not in manifest_map:
            manifest_order.append(key)
        manifest_map[key] = manifest  # last manifest wins, as at store open

    records: dict[str, dict[int, tuple[dict, bytes]]] = {}
    for record, line in journal:
        if record.get("kind") != "experiment":
            raise StoreError(
                f"shard {spec.spec}: journal holds a "
                f"{record.get('kind')!r} record; only campaign sweeps "
                f"shard — memoized result cells never do"
            )
        by_seq = records.setdefault(record["campaign"], {})
        if record["seq"] in by_seq:
            raise StoreError(
                f"shard {spec.spec}: duplicate record for seq "
                f"{record['seq']} of campaign {record['campaign'][:12]}"
            )
        by_seq[record["seq"]] = (record, line)

    counters = json.loads((path / "shard.json").read_text()).get("counters", {})
    return _LoadedShard(spec, path, manifest_order, manifest_map, records, counters)


def _identity(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k not in _PROGRESS_FIELDS}


def _check_manifests(shards: list[_LoadedShard]) -> None:
    first = shards[0]
    for other in shards[1:]:
        if other.manifest_order != first.manifest_order:
            missing = set(first.manifest_order) ^ set(other.manifest_order)
            what = (
                f"different campaign sets (symmetric difference "
                f"{sorted(k[:12] for k in missing)})"
                if missing
                else "the same campaigns in a different recording order"
            )
            raise StoreError(
                f"shard {other.spec.spec} manifests {what} than shard "
                f"{first.spec.spec} — these stripes are not one sweep"
            )
        for key in first.manifest_order:
            a, b = first.manifests[key], other.manifests[key]
            if _identity(a) == _identity(b):
                continue
            if (
                a["registry_fingerprint"] != b["registry_fingerprint"]
                or a["registry_version"] != b["registry_version"]
            ):
                raise StoreError(
                    f"campaign {key[:12]}: shard {first.spec.spec} and "
                    f"shard {other.spec.spec} were recorded against "
                    f"different workload registries (fingerprint "
                    f"{a['registry_fingerprint'][:12]} vs "
                    f"{b['registry_fingerprint'][:12]}); their records "
                    f"describe different workloads and cannot be merged"
                )
            fields = sorted(
                k
                for k in _identity(a)
                if _identity(a)[k] != _identity(b).get(k)
            )
            raise StoreError(
                f"campaign {key[:12]}: manifest identity differs between "
                f"shard {first.spec.spec} and shard {other.spec.spec} in "
                f"field(s) {fields} — same key, different sweeps; refusing"
            )
    for shard in shards:
        for key in shard.manifest_order:
            manifest = shard.manifests[key]
            if not manifest.get("completed"):
                done = len(shard.records.get(key, {}))
                raise StoreError(
                    f"shard {shard.spec.spec}: campaign {key[:12]} is "
                    f"incomplete ({done} record(s)); resume that shard to "
                    f"finish its stripe, then merge"
                )


def _check_coverage(shards: list[_LoadedShard]) -> None:
    for key in shards[0].manifest_order:
        planned = shards[0].manifests[key]["planned"]
        owner: dict[int, ShardSpec] = {}
        for shard in shards:
            stripe = set(shard.spec.stripe(planned))
            for seq in shard.records.get(key, {}):
                if seq not in stripe:
                    other = seq % shard.spec.count
                    raise StoreError(
                        f"campaign {key[:12]}: shard {shard.spec.spec} "
                        f"holds seq {seq}, which belongs to stripe "
                        f"{other}/{shard.spec.count} — overlapping key "
                        f"ranges; these stores did not run disjoint "
                        f"partitions"
                    )
                owner[seq] = shard.spec
        missing = [seq for seq in range(planned) if seq not in owner]
        if missing:
            raise StoreError(
                f"campaign {key[:12]}: missing {len(missing)} of {planned} "
                f"schedule position(s) (first: seq {missing[0]}, stripe "
                f"{missing[0] % shards[0].spec.count}) — incomplete or "
                f"absent shard stores"
            )


def _recompute_converged(manifest: dict, outcomes: list[str]):
    """The convergence flag a full-budget serial run would manifest.

    Only campaigns recorded with a :class:`CampaignConfig`-shaped config
    carry convergence semantics (``run_batch`` sweeps don't); for those,
    chunk the merged schedule's outcomes into campaigns and prefix-evaluate
    the same predicate the live driver uses.
    """
    from ..core.campaign import CampaignConfig, would_converge

    config = manifest.get("config")
    if not isinstance(config, dict):
        return None
    try:
        campaign_config = CampaignConfig(**config)
    except TypeError:
        return None
    per = campaign_config.experiments_per_campaign
    samples = []
    for start in range(0, len(outcomes), per):
        chunk = outcomes[start : start + per]
        # CampaignStats.rate("sdc"): every record holds exactly one outcome.
        samples.append(chunk.count("sdc") / len(chunk))
    return would_converge(samples, campaign_config)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def merge_shards(
    parent: str | Path,
    out: str | Path | None = None,
    durations: dict[int, float] | None = None,
) -> MergeReport:
    """Merge the ``shard-*/`` stores under ``parent`` into one serial store.

    Returns a :class:`MergeReport`; raises :class:`StoreError` on any
    refusal.  ``out`` defaults to ``<parent>/merged``.  ``durations``
    (shard index -> seconds, from the cluster orchestrator) only annotates
    the report's per-shard rows.
    """
    parent = Path(parent)
    if (parent / "STORE").exists():
        raise StoreError(
            f"{parent} is itself a campaign store, not a sharded sweep "
            f"parent; merge wants the directory *containing* shard-*/"
        )
    dirs = find_shard_dirs(parent)
    if not dirs:
        raise StoreError(f"{parent}: no shard-*/ stores to merge")
    shards = [_load_shard(path) for path in dirs]

    counts = {shard.spec.count for shard in shards}
    if len(counts) != 1:
        raise StoreError(
            f"shard stores disagree on the shard count: "
            f"{sorted(s.spec.spec for s in shards)} — these stripes belong "
            f"to different partitionings"
        )
    count = counts.pop()
    have = {shard.spec.index for shard in shards}
    missing = sorted(set(range(count)) - have)
    if missing:
        raise StoreError(
            f"{parent}: missing shard store(s) for stripe(s) "
            f"{['%d/%d' % (i, count) for i in missing]} — every stripe of "
            f"the sweep must be present to reassemble the serial journal"
        )

    _check_manifests(shards)
    _check_coverage(shards)

    by_index = {shard.spec.index: shard for shard in shards}
    rows = {
        shard.spec.index: ShardMergeRow(
            spec=shard.spec,
            path=shard.path,
            records=0,
            hits=int(shard.counters.get("hits", 0)),
            misses=int(shard.counters.get("misses", 0)),
            outcomes=Counter(),
            seconds=(durations or {}).get(shard.spec.index),
        )
        for shard in shards
    }

    # Reassembly: campaigns in manifest-recording order, records in seq
    # order — exactly the layout a serial sweep journals (drivers manifest
    # every cell upfront, then run cells sequentially).
    journal_parts: list[bytes] = []
    manifest_parts: list[bytes] = []
    completed_parts: list[bytes] = []
    totals = Counter()
    records_total = 0
    first = shards[0]
    for key in first.manifest_order:
        merged_manifest = dict(first.manifests[key])
        planned = merged_manifest["planned"]
        ordered: list[str] = []
        for seq in range(planned):
            shard = by_index[seq % count]
            record, line = shard.records[key][seq]
            journal_parts.append(line)
            outcome = record["result"]["outcome"]
            ordered.append(outcome)
            rows[shard.spec.index].records += 1
            rows[shard.spec.index].outcomes[outcome] += 1
            totals[outcome] += 1
        records_total += planned
        initial = {
            **merged_manifest,
            "completed": False,
            "executed": None,
            "converged": None,
        }
        manifest_parts.append(frame(initial))
        completed_parts.append(
            frame(
                {
                    **merged_manifest,
                    "completed": True,
                    "executed": planned,
                    "converged": _recompute_converged(merged_manifest, ordered),
                }
            )
        )

    out = Path(out) if out is not None else parent / "merged"
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "STORE"
    from .store import FORMAT

    if marker.exists():
        found = marker.read_text().strip()
        if found != FORMAT:
            raise StoreError(
                f"{out} is a {found!r} store; refusing to overwrite it "
                f"with a {FORMAT!r} merge"
            )
    elif any(out.iterdir()):
        raise StoreError(
            f"{out} exists, is not empty, and has no STORE marker; "
            f"refusing to merge into it"
        )
    journal_bytes = b"".join(journal_parts)
    _atomic_write_bytes(marker, (FORMAT + "\n").encode())
    _atomic_write_bytes(out / "journal.jsonl", journal_bytes)
    _atomic_write_bytes(
        out / "manifests.jsonl", b"".join(manifest_parts + completed_parts)
    )

    verify = verify_store(out)
    report = MergeReport(
        out=out,
        shards=[rows[i] for i in sorted(rows)],
        campaigns=len(first.manifest_order),
        records=records_total,
        outcomes=totals,
        journal_bytes=len(journal_bytes),
        verify=verify,
    )
    if not verify.ok:
        raise StoreError(
            f"merged store failed verification:\n{verify.render()}"
        )
    return report
