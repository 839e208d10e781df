"""Per-campaign recording/replay façade the campaign driver talks to.

One :class:`CampaignRecorder` follows one campaign cell's schedule in
order: the driver *claims* a key for each drawn experiment, *replays* it
from the store when the key is already present (a hit — the faulty run is
skipped entirely), and otherwise executes it and *records* the bit-exact
result.  The hit/miss counters mirror :class:`~repro.core.injector.
GoldenCache`'s naming so campaign summaries, ``status`` output, and
benchmark reports share one accounting vocabulary.
"""

from __future__ import annotations

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

    def claim(self, k: int, bit: int, params) -> tuple[str, int]:
        """The content key for the next experiment in schedule order."""
        seq = self._seq
        self._seq += 1
        return experiment_key(self.campaign_key, seq, k, bit, params), seq

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
