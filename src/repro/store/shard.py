"""Deterministic campaign partitioning: schedule stripes over N shards.

A sweep's schedule is a pure function of the campaign seed — experiment
keys are sha256 over campaign identity + schedule position, with ``--jobs``
and the checkpoint path deliberately excluded — so the schedule can be
partitioned *by position* without touching identity at all.  Shard ``i`` of
``N`` owns every schedule position ``seq`` with ``seq % N == i`` (a round-
robin stripe, so campaign-sized prefixes stay balanced even when a sweep is
cut short), runs those experiments into its own store directory, and skips
the rest while still consuming the campaign RNG stream entry for entry.
The union of N shard journals is therefore exactly the serial journal, and
:mod:`repro.store.merge` reassembles it byte for byte.

``--shards`` never enters the experiment key or the campaign manifest
identity: a shard store's records are bit-identical to the records a
single-host run would journal at the same positions, which is the whole
merge invariant.  The shard *assignment* is store-local bookkeeping and
lives in a ``shard.json`` sidecar next to the journals.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .journal import StoreError

#: Shard store directories created under a sweep's parent directory.
SHARD_DIR_PREFIX = "shard-"

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


@dataclass(frozen=True)
class ShardSpec:
    """One partition of a campaign schedule: stripe ``index`` of ``count``."""

    index: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise StoreError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise StoreError(
                f"shard index {self.index} out of range for {self.count} "
                f"shard(s); indices are 0-based"
            )

    def owns(self, seq: int) -> bool:
        """Does this shard execute schedule position ``seq``?"""
        return seq % self.count == self.index

    def stripe(self, total: int) -> list[int]:
        """Every schedule position this shard owns in a ``total``-long run."""
        return list(range(self.index, total, self.count))

    def stripe_size(self, total: int) -> int:
        if total <= self.index:
            return 0
        return (total - self.index + self.count - 1) // self.count

    @property
    def spec(self) -> str:
        return f"{self.index}/{self.count}"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.spec


def parse_shards(text: str) -> ShardSpec | int:
    """Parse a CLI ``--shards`` value.

    ``"i/N"`` selects one partition (a :class:`ShardSpec`); a bare integer
    ``"N"`` asks for all N partitions — ``1`` is a plain single-store run
    and ``N > 1`` the simulated-cluster orchestrator (fork N shard runs,
    merge, rebuild).
    """
    text = text.strip()
    if "/" in text:
        left, _, right = text.partition("/")
        try:
            index, count = int(left), int(right)
        except ValueError:
            raise StoreError(
                f"--shards expects 'i/N' or 'N', got {text!r}"
            ) from None
        return ShardSpec(index, count)
    try:
        count = int(text)
    except ValueError:
        raise StoreError(f"--shards expects 'i/N' or 'N', got {text!r}") from None
    if count < 1:
        raise StoreError(f"--shards needs a positive shard count, got {count}")
    return count


def shard_dir(parent: str | Path, index: int) -> Path:
    return Path(parent) / f"{SHARD_DIR_PREFIX}{index}"


def find_shard_dirs(parent: str | Path) -> list[Path]:
    """The ``shard-<i>/`` store directories under ``parent``, by index."""
    parent = Path(parent)
    if not parent.is_dir():
        return []
    found = []
    for entry in parent.iterdir():
        match = _SHARD_DIR_RE.match(entry.name)
        if match and entry.is_dir():
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def is_shard_parent(path: str | Path) -> bool:
    """A directory holding ``shard-*/`` stores but not itself a store."""
    path = Path(path)
    return not (path / "STORE").exists() and bool(find_shard_dirs(path))


def read_shard_file(root: str | Path) -> ShardSpec | None:
    """The shard assignment recorded in a store's ``shard.json``, if any."""
    path = Path(root) / "shard.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return ShardSpec(data["index"], data["count"])


def write_shard_file(root: str | Path, spec: ShardSpec) -> None:
    """Pin a store's shard assignment (atomic, like the STORE marker)."""
    path = Path(root) / "shard.json"
    existing = read_shard_file(root)
    if existing is not None and existing != spec:
        raise StoreError(
            f"{root} is shard {existing.spec} of its sweep; refusing to "
            f"re-run it as shard {spec.spec} — that would interleave two "
            f"different stripes in one journal"
        )
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps({"index": spec.index, "count": spec.count}, sort_keys=True)
        + "\n"
    )
    os.replace(tmp, path)


# -- sharded status (satellite: `status --store <parent>`) ---------------------


def sharded_status_rows(parent: str | Path) -> tuple[list[dict], list[dict]]:
    """Per-shard progress rows plus combined per-cell totals.

    Opens each ``shard-*/`` store under ``parent``; returns ``(per_shard,
    combined)`` where ``per_shard`` rows carry a ``shard`` column and
    ``combined`` aggregates done counts per (experiment, cell, scale,
    engine) against the *global* planned budget (every shard manifests the
    full budget; only its stripe of it executes locally).
    """
    from .store import CampaignStore

    per_shard: list[dict] = []
    combined: dict[tuple, dict] = {}
    for path in find_shard_dirs(parent):
        store = CampaignStore(path)
        try:
            spec = store.shard_spec()
            label = spec.spec if spec is not None else path.name
            for row in store.status_rows():
                per_shard.append({"shard": label, **row})
                key = (row["experiment"], row["cell"], row["scale"], row["engine"])
                cell = combined.setdefault(
                    key,
                    {
                        "experiment": row["experiment"],
                        "cell": row["cell"],
                        "scale": row["scale"],
                        "engine": row["engine"],
                        "done": 0,
                        "planned": row.get("global_planned", row["planned"]),
                        "complete": True,
                    },
                )
                cell["done"] += row["done"]
                cell["complete"] &= row["state"] in ("complete", "cached")
        finally:
            store.close()
    rows = []
    for cell in combined.values():
        state = "complete" if cell.pop("complete") else "partial"
        if state == "partial" and cell["done"] == 0:
            state = "pending"
        rows.append({**cell, "state": state})
    return per_shard, rows


def render_sharded_status(parent: str | Path) -> str:
    from ..analysis.report import render_table

    per_shard, combined = sharded_status_rows(parent)
    if not per_shard:
        return f"{parent}: no shard stores found"
    shard_table = render_table(
        ["shard", "experiment", "cell", "scale", "engine", "done", "planned", "state"],
        [
            [
                r["shard"], r["experiment"], r["cell"], r["scale"],
                r["engine"], r["done"], r["planned"], r["state"],
            ]
            for r in per_shard
        ],
        title=f"Sharded campaign sweep {parent}",
    )
    total_table = render_table(
        ["experiment", "cell", "scale", "engine", "done", "planned", "state"],
        [
            [
                r["experiment"], r["cell"], r["scale"], r["engine"],
                r["done"], r["planned"], r["state"],
            ]
            for r in combined
        ],
        title="Combined across shards",
    )
    incomplete = sum(1 for r in combined if r["state"] != "complete")
    if incomplete:
        footer = (
            f"\n\n{incomplete} cell(s) incomplete across shards — re-run the "
            f"unfinished shards (each resumes from its own store), then "
            f"`merge --store {parent}`."
        )
    else:
        footer = (
            f"\n\nall shards complete — `merge --store {parent}` assembles "
            f"the serial-identical journal."
        )
    return shard_table + "\n\n" + total_table + footer
