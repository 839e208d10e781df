"""Per-campaign recording/replay façade the campaign driver talks to.

One :class:`CampaignRecorder` follows one campaign cell's schedule in
order: the driver *redraws* a position the store already holds from its
record (no golden run), or draws it with a golden run and *claims* a key
for it; it *replays* a stored key (a hit — the faulty run is skipped
entirely), and otherwise executes it and *records* the bit-exact result.
The hit/miss counters mirror :class:`~repro.core.injector.
GoldenCache`'s naming so campaign summaries, ``status`` output, and
benchmark reports share one accounting vocabulary.
"""

from __future__ import annotations

from ..core.runtime import TYPE_WIDTHS
from ..errors import ReproError
from .keys import experiment_key
from .records import decode_result, encode_result


class CampaignAborted(ReproError):
    """Deliberate mid-campaign abort (the ``--abort-after`` crash driver).

    Raised *after* the store has flushed, so everything recorded so far
    survives — exactly what a SIGKILL at the same point would leave behind,
    minus at most one torn journal tail (which :meth:`Journal.load` drops).
    """


class CampaignRecorder:
    """Streams one campaign's experiments through a :class:`CampaignStore`."""

    def __init__(self, store, manifest: dict, abort_after: int | None = None):
        self.store = store
        self.manifest = manifest
        self.campaign_key = manifest["campaign_key"]
        self.abort_after = abort_after
        #: Experiments replayed from the store (faulty run skipped).
        self.hits = 0
        #: Experiments actually executed (and recorded) this run.
        self.misses = 0
        self._seq = 0

    def will_execute(self, shard=None) -> bool:
        """Is the next position this stripe's and not yet stored?"""
        seq = self._seq
        owned = shard is None or shard.owns(seq)
        return owned and self.store.experiment_at(self.campaign_key, seq) is None

    def claim(
        self, k: int, bit: int, params, shard=None
    ) -> tuple[str, int] | None:
        """The content key and position of the next experiment in schedule
        order, or ``None`` when ``shard`` does not own that position: a
        stripe hashes only its own experiments' keys."""
        seq = self._seq
        self._seq += 1
        if shard is not None and not shard.owns(seq):
            return None
        return experiment_key(self.campaign_key, seq, k, bit, params), seq

    def redraw(self, rng, params, shard=None) -> tuple[str, int, int, int] | None:
        """Claim the next position from its stored record, with no golden run.

        A stored result holds both values the schedule's draw takes from
        the golden: its dynamic-site count N and the type, hence the width,
        of the site it hit.  The redraw checks itself: its ``k``, ``bit``
        and content key must equal the record's.  Returns ``(key, seq, k,
        bit)``, the position claimed; or ``None`` with ``rng`` and the
        position untouched — another stripe's position, nothing stored, or
        a record that disagrees — and the caller draws with a golden run.
        """
        seq = self._seq
        if shard is not None and not shard.owns(seq):
            return None
        record = self.store.experiment_at(self.campaign_key, seq)
        if record is None:
            return None
        result = record["result"]
        injection = result["injection"]
        width = TYPE_WIDTHS.get(injection["type_name"]) if injection else None
        if width is None or result["dynamic_sites"] < 1:
            return None
        state = rng.getstate()
        # core.parallel.draw_experiment's two draws, from the record's values.
        k = rng.randint(1, result["dynamic_sites"])
        bit = rng.randrange(width)
        key = record["key"]
        if (k, bit) != (record["k"], record["bit"]) or key != experiment_key(
            self.campaign_key, seq, k, bit, params
        ):
            rng.setstate(state)
            return None
        self._seq += 1
        return key, seq, k, bit

    def replay(self, key: str):
        """The stored result for ``key``, or ``None`` if it must execute."""
        record = self.store.lookup_experiment(key)
        if record is None:
            return None
        self.hits += 1
        self.store.session_counters["hits"] += 1
        return decode_result(record["result"])

    def record(self, key: str, seq: int, k: int, bit: int, params, result) -> None:
        self.store.record_experiment(
            {
                "kind": "experiment",
                "key": key,
                "campaign": self.campaign_key,
                "seq": seq,
                "k": k,
                "bit": bit,
                "params": params,
                "result": encode_result(result),
            }
        )
        self.misses += 1
        self.store.session_counters["misses"] += 1
        if self.abort_after is not None and self.misses >= self.abort_after:
            self.store.flush()
            raise CampaignAborted(
                f"aborted after {self.misses} newly executed experiments "
                f"(abort_after={self.abort_after}); store flushed — resume "
                f"from it to finish the campaign"
            )

    def finish(self, executed_total: int, converged: bool | None = None) -> None:
        """Mark the campaign complete and pin its final budget."""
        manifest = {
            **self.manifest,
            "completed": True,
            "executed": executed_total,
            "converged": converged,
        }
        self.manifest = manifest
        self.store.add_manifest(manifest)
        self.store.flush()

    def counters(self) -> dict:
        """Hit/skip accounting, GoldenCache-style."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "recorded": self.store.experiment_count(self.campaign_key),
        }
