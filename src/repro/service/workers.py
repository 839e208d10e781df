"""Campaign execution for the service: warm engines, streamed progress.

The daemon runs each scheduled campaign on a runner thread; the forked
:class:`~repro.core.parallel.ExperimentPool` executes the faulty halves.  The
pieces here keep that path warm and observable:

* :class:`EngineCache` pools parent-side :class:`FaultInjector` instances
  by :class:`EngineSpec`.  An injector carries the decoded/compiled module
  and its :class:`GoldenCache`, so returning one to the pool hands the
  next campaign — any tenant — a warm engine and a primed golden cache.
  Specs are by-name content recipes, so the sharing is sound: two tenants
  with the same spec are running the same module, bit for bit.
* :class:`StreamingRecorder` wraps the store's
  :class:`~repro.store.recorder.CampaignRecorder`, forwarding the
  claim/replay/record protocol unchanged (journal bytes are untouched)
  while emitting progress events — done counts, recorder hit/miss,
  outcome totals — to a callback the daemon fans out over SSE.
* :func:`execute_submission` ties it together: acquire engine, open the
  recorder (folding run-time extras into the accept-time manifest), run
  the campaigns, release the engine warm, then send the final event.
"""

from __future__ import annotations

import threading

from ..core.campaign import CampaignStats, CampaignSummary, run_campaigns
from ..core.injector import FaultInjector
from ..core.parallel import EngineSpec, ExperimentPool
from .protocol import (
    EXPERIMENT,
    Submission,
    config_of,
    spec_of,
    totals_dict,
)


class EngineCache:
    """A pool of warm parent-side engines, keyed by :class:`EngineSpec`.

    ``acquire`` pops a free warm injector for the spec or builds (and
    warms) a fresh one; ``release`` returns it for the next campaign.
    Injectors are not thread-safe, so concurrent campaigns on the same
    spec each get their own instance — but across *sequential* campaigns
    the instance (module, compiled engine, golden cache) is reused no
    matter which tenant submitted them.
    """

    def __init__(self):
        self._free: dict[EngineSpec, list[FaultInjector]] = {}
        self._lock = threading.Lock()
        self.builds = 0
        self.reuses = 0

    def acquire(self, spec: EngineSpec) -> FaultInjector:
        with self._lock:
            free = self._free.get(spec)
            if free:
                self.reuses += 1
                return free.pop()
            self.builds += 1
        return spec.build()

    def release(self, spec: EngineSpec, injector: FaultInjector) -> None:
        with self._lock:
            self._free.setdefault(spec, []).append(injector)

    def stats(self) -> dict:
        with self._lock:
            return {
                "builds": self.builds,
                "reuses": self.reuses,
                "pooled": sum(len(v) for v in self._free.values()),
            }


class StreamingRecorder:
    """Forward a campaign recorder, narrating its progress as events.

    Every forwarded call is byte-for-byte what the wrapped recorder would
    have done alone — this class only *observes*, so a daemon-run campaign
    journals identically to a CLI run.  ``emit(event)`` receives dicts in
    the shared status schema: running ``done``/``hits``/``misses`` counts
    and outcome ``totals``; the daemon timestamps and fans them out.  The
    final ``complete`` event is not emitted by :meth:`finish` but kept as
    :attr:`final_event` for the caller to send once its cleanup is done.
    """

    def __init__(self, recorder, emit, every: int = 1):
        self._recorder = recorder
        self._emit = emit
        self._every = max(1, every)
        self._stats = CampaignStats()
        self.done = 0
        self.hits = 0
        self.misses = 0
        self.campaign_key = recorder.campaign_key
        self.final_event: dict | None = None

    # -- recorder protocol (see core.campaign) ---------------------------------

    @property
    def store(self):
        return self._recorder.store

    def claim(self, k, bit, params):
        return self._recorder.claim(k, bit, params)

    def replay(self, key):
        stored = self._recorder.replay(key)
        if stored is not None:
            self.hits += 1
            self._note(stored)
        return stored

    def record(self, key, seq, k, bit, params, result):
        self._recorder.record(key, seq, k, bit, params, result)
        self.misses += 1
        self._note(result)

    def finish(self, executed_total, converged=None):
        self._recorder.finish(executed_total, converged)
        self.final_event = self.progress_event(final=True, converged=converged)

    def counters(self):
        return self._recorder.counters()

    # -- event plumbing --------------------------------------------------------

    def _note(self, result) -> None:
        self._stats.add(result)
        self.done += 1
        if self.done % self._every == 0:
            self._emit(self.progress_event())

    def progress_event(self, final: bool = False, converged=None) -> dict:
        event = {
            "event": "complete" if final else "progress",
            "campaign": self.campaign_key,
            "done": self.done,
            "hits": self.hits,
            "misses": self.misses,
            "totals": totals_dict(self._stats),
        }
        if final:
            event["converged"] = converged
        return event

    def live_row(self) -> dict:
        """The in-flight overlay for this campaign's status row."""
        return {
            "state": "running",
            "done": self.done,
            "hits": self.hits,
            "misses": self.misses,
            "totals": totals_dict(self._stats),
        }


def execute_submission(
    store,
    sub: Submission,
    pool: ExperimentPool | None,
    engines: EngineCache,
    emit,
    progress_every: int = 1,
) -> CampaignSummary:
    """Run one accepted submission to completion against the store.

    Seeds, schedule draws, and journal frames are identical to the fig11
    CLI path for the same cell — the recorder protocol, the RNG stream,
    and the pool's in-order imap guarantee it — so a daemon-filled store
    and a CLI-filled store are byte-interchangeable.

    The engine goes back to ``engines`` *before* the final ``complete``
    event is emitted: a closed-loop client that submits its next campaign
    on that event must find the engine warm, not race its release.
    """
    from ..workloads.registry import get_workload

    spec = spec_of(sub)
    workload = get_workload(sub.workload)
    injector = engines.acquire(spec)
    try:
        recorder = store.recorder(
            experiment=EXPERIMENT,
            cell=sub.cell,
            scale=sub.scale,
            injector=injector,
            seed=sub.seed,
            config=sub.config,
            planned=config_of(sub).max_campaigns
            * config_of(sub).experiments_per_campaign,
            extras={
                "static_sites": len(injector.sites),
                "tenant": sub.tenant,
                "priority": sub.priority,
            },
        )
        streaming = StreamingRecorder(recorder, emit, every=progress_every)
        summary = run_campaigns(
            injector,
            workload.runner_factory(),
            config_of(sub),
            seed=sub.seed,
            pool=pool.cell(spec) if pool is not None else None,
            recorder=streaming,
        )
    finally:
        engines.release(spec, injector)
    emit(streaming.final_event)
    return summary
