"""service_mix: a closed loop of two clients against ``serve --jobs 2``.

The daemon runs in its own process (the ``serve`` verb at its defaults
plus ``--jobs 2``), on a fresh store.  Two client threads each submit a
campaign, wait until it completes, and submit the next.  Fresh
submissions cycle a fixed set of smoke-scale fig11 cells over micro and
Table-I workloads with seeds derived from the workload seed, so the daemon
executes them and appends to its journal.  Every third submission instead
repeats the campaign the *other* client completed last, under its own
tenant, so the daemon serves it from the journal without executing.

The load runs in blocks: in each, both clients run one whole cycle of the
specs (half a cycle apart) and the block ends when both are done.  Every
block thus makes the same mix of work, so blocks compare like repeats of
one piece of work; block 0 also builds the daemon's engines and is not
timed.

Run latency runs from submission to the ``complete`` event; hit latency
from submission to the journal-served 200 acknowledgement.  Event times
are when the client received them.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import (
    HERE,
    ROOT,
    Tally,
    check_reference,
    derive_seed,
    latency_note,
    median,
    overhead,
    program_env,
    setup_note,
)

NAME = "service_mix"
CLIENTS = 2
JOBS = 2
#: Fresh submissions cycle these (workload, target, category) cells; the
#: odd ones cost several times more than the even ones.
SPECS = (
    ("vcopy", "avx", "control"),
    ("stencil", "avx", "pure-data"),
    ("dot_product", "sse", "pure-data"),
    ("blackscholes", "sse", "control"),
    ("vector_sum", "avx", "address"),
    ("sorting", "avx", "address"),
    ("vcopy", "sse", "address"),
    ("jacobi", "sse", "pure-data"),
)
SCALE = "smoke"
EXPERIMENTS = 8  # the smoke scale's per-campaign budget
#: Every ``REPEAT_EVERY``-th submission repeats the other client's campaign.
REPEAT_EVERY = 3
#: References cover the first ``REFERENCE_FRESH`` fresh campaigns per client.
REFERENCE_FRESH = 500
START_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0
#: Daemon start-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fresh campaigns per client in a block: one cycle of the specs.  Layer
#: figures of the traced run come from the first block, which the seed fixes.
BLOCK_FRESH = len(SPECS)
#: Longest a repeat waits for the other client's first completion.
REPEAT_WAIT = 60.0


def fresh_payload(seed: int, client: int, f: int) -> dict:
    """Client ``client``'s ``f``-th fresh campaign: the clients cycle every
    spec, ``len(SPECS) / CLIENTS`` apart."""
    offset = client * len(SPECS) // CLIENTS
    workload, target, category = SPECS[(f + offset) % len(SPECS)]
    return {
        "workload": workload,
        "target": target,
        "category": category,
        "scale": SCALE,
        "seed": derive_seed(seed, NAME, client, f),
    }


def totals_text(totals: dict) -> str:
    return "{sdc}/{benign}/{crash}/{detected}".format(**totals)


# -- daemon lifecycle ----------------------------------------------------------


class Daemon:
    """One ``serve`` process in its own session, stopped with SIGINT."""

    def __init__(self, store: Path, spans_out: Path | None = None):
        args = ["serve", "--store", str(store), "--port", "0", "--jobs", str(JOBS)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.experiments", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans_out), *args]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=program_env(),
            cwd=ROOT, start_new_session=True,
        )
        try:
            self.port = self._read_port()
            from repro.service import ServiceClient

            ServiceClient(port=self.port, timeout=10).wait_ready(timeout=START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"daemon did not announce its port: {line!r}")
        return int(match.group(1))

    def health(self) -> dict:
        from repro.service import ServiceClient

        return ServiceClient(port=self.port, timeout=10).health()

    def stop(self) -> None:
        """Interrupt, wait, and make sure nothing of its session survives."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        proc.stdout.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGKILL)


# -- the closed loop -----------------------------------------------------------


class Window:
    def __init__(self):
        self.start = 0.0
        self.seconds = 0.0
        self.executed = 0
        self.experiments = 0
        self.hits = 0
        self.run_latency: list[float] = []
        self.hit_latency: list[float] = []
        self.first_result: list[float] = []
        #: client -> [(f, payload, totals)] of completed fresh campaigns.
        self.completed: dict[int, list] = {c: [] for c in range(CLIENTS)}
        self.lock = threading.Lock()
        #: Notified whenever a fresh campaign completes.
        self.done = threading.Condition(self.lock)


def run_fresh(client, c: int, f: int, seed: int, window: Window,
              tally: Tally, refs, tracer, tag: str) -> None:
    payload = fresh_payload(seed, c, f)
    t_sub = time.perf_counter()
    ack = client.submit(**payload)
    t_ack = time.perf_counter()
    t_started = first = final = None
    for name, event in client.events(ack["campaign"]):
        now = time.perf_counter()
        if name == "started" and t_started is None:
            t_started = now
        elif name == "progress" and first is None and event.get("done"):
            first = now
        elif name == "failed":
            raise RuntimeError(f"campaign failed: {event.get('error')}")
        elif name == "complete":
            final = event
            break
    t_done = time.perf_counter()
    if final is None:
        raise RuntimeError("event stream ended without a complete event")
    t_started = t_started or t_ack
    totals = final["totals"]
    with window.lock:
        window.executed += 1
        window.experiments += totals["total"]
        window.run_latency.append(t_done - t_sub)
        window.first_result.append((first or t_done) - t_sub)
        window.completed[c].append((f, payload, totals))
        window.done.notify_all()
    if tracer is not None:
        run = f"{tag}c{c}.f{f}"
        tracer.record("service.submit", t_sub, t_ack, run)
        tracer.record("service.queue_wait", t_ack, t_started, run)
        tracer.record("service.exec", t_started, t_done, run)
    tally.check(
        totals["total"] == EXPERIMENTS,
        f"client {c} campaign {f}: {totals['total']} of {EXPERIMENTS} experiments",
    )
    check_reference(tally, refs, f"c{c}.f{f}", totals_text(totals),
                    f"client {c} campaign {f} totals")


def run_repeat(client, c: int, original, window: Window, tally: Tally, tracer,
               tag: str) -> None:
    _, payload, totals = original
    t_sub = time.perf_counter()
    ack = client.submit(**payload)
    t_ack = time.perf_counter()
    with window.lock:
        window.hits += 1
        window.hit_latency.append(t_ack - t_sub)
    if tracer is not None:
        tracer.record("service.submit", t_sub, t_ack, f"{tag}c{c}.repeat")
    tally.check(
        bool(ack.get("cached")),
        f"client {c}: a completed campaign was not served from the journal",
    )
    tally.check(
        ack.get("row", {}).get("totals") == totals,
        f"client {c}: journal-served totals differ from the executed campaign's",
    )


def client_loop(c: int, port: int, seed: int, window: Window, tally: Tally,
                refs, tracer, tag: str, fresh) -> None:
    """Client ``c``'s closed loop until it has run fresh campaigns
    ``first..end-1`` of ``fresh=(first, end)``.

    A repeat waits until the other client has completed a campaign in this
    window, so every window of fixed work makes the same mix.
    """
    from repro.service import ServiceClient

    client = ServiceClient(port=port, tenant=f"client{c}", timeout=120)
    other = (c + 1) % CLIENTS
    f, end = fresh
    i = 0
    while f < end:
        original = None
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            with window.done:
                window.done.wait_for(lambda: window.completed[other], REPEAT_WAIT)
                done = window.completed[other]
                original = done[-1] if done else None
        tally.attempt()
        try:
            if original is None:
                run_fresh(client, c, f, seed, window, tally, refs, tracer, tag)
            else:
                run_repeat(client, c, original, window, tally, tracer, tag)
        except Exception as exc:  # a failed submission; the loop goes on
            tally.fail(1, f"client {c} submission {i}: {exc!r}")
        if original is None:
            f += 1
        i += 1


def run_window(port: int, seed: int, tally: Tally, refs, fresh, *,
               tracer=None, tag: str = "") -> Window:
    """Both clients' loops over the ``fresh`` range."""
    window = Window()
    start = window.start = time.perf_counter()
    threads = [
        threading.Thread(
            target=client_loop,
            args=(c, port, seed, window, tally, refs, tracer, tag, fresh),
        )
        for c in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window.seconds = time.perf_counter() - start
    return window


def references(seed: int, work: Path) -> dict:
    """Totals of each client's first ``REFERENCE_FRESH`` fresh campaigns,
    run in this process through the daemon's own execution path."""
    from repro.service.protocol import normalize_submission
    from repro.service.workers import EngineCache, execute_submission
    from repro.store import CampaignStore
    from repro.service.protocol import totals_dict

    engines = EngineCache()
    store = CampaignStore(work / "ref-service")
    refs = {}
    try:
        for c in range(CLIENTS):
            for f in range(REFERENCE_FRESH):
                sub = normalize_submission(fresh_payload(seed, c, f))
                summary = execute_submission(store, sub, None, engines, lambda e: None)
                refs[f"c{c}.f{f}"] = totals_text(totals_dict(summary.totals))
    finally:
        store.close()
    return refs


def block_fresh(k: int) -> tuple[int, int]:
    return k * BLOCK_FRESH, (k + 1) * BLOCK_FRESH


def end_to_end(blocks: list[Window]) -> dict:
    """Medians over the timed blocks of each block's executed experiments
    and completed submissions per second, and of its mean run latency."""
    return {
        "experiments_per_s": median(b.experiments / b.seconds for b in blocks),
        "campaigns_per_s": median((b.executed + b.hits) / b.seconds for b in blocks),
        "latency_s": median(sum(b.run_latency) / len(b.run_latency) for b in blocks),
    }


def merged(blocks: list[Window]) -> Window:
    """One window holding every block's counts and samples."""
    whole = Window()
    for b in blocks:
        whole.seconds += b.seconds
        whole.executed += b.executed
        whole.experiments += b.experiments
        whole.hits += b.hits
        whole.run_latency += b.run_latency
        whole.hit_latency += b.hit_latency
        whole.first_result += b.first_result
    return whole


def describe(window: Window) -> str:
    return (
        f"{window.executed} executed + {window.hits} journal-served campaigns "
        f"({window.experiments} experiments) in {window.seconds:.2f} s"
    )


def outcomes(window: Window) -> dict:
    counts = {"sdc": 0, "benign": 0, "crash": 0, "detected": 0}
    for done in window.completed.values():
        for _, _, totals in done:
            for key in counts:
                counts[key] += totals[key]
    return {
        "core.outcomes.sdc": counts["sdc"],
        "core.outcomes.benign": counts["benign"],
        "core.outcomes.crash": counts["crash"],
        "detectors.detected_sdc": counts["detected"],
    }


def notes(window: Window) -> list[str]:
    return [
        describe(window),
        latency_note("run latency", window.run_latency),
        latency_note("hit latency", window.hit_latency),
        latency_note("first result", window.first_result),
    ]


def measure(ctx) -> tuple[dict, list[str]]:
    """Untraced run: start the daemon several times, then load the last one
    block by block until the time is up; block 0 is the warm-up."""
    startups = []
    daemon = None
    for i in range(SETUP_SAMPLES):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(ctx.work / f"store{i}")
        startups.append(daemon.startup_s)
    blocks = []
    try:
        start = time.perf_counter()
        while len(blocks) < 2 or time.perf_counter() - start < ctx.seconds:
            blocks.append(run_window(daemon.port, ctx.seed, ctx.tally, ctx.refs,
                                     block_fresh(len(blocks))))
    finally:
        daemon.stop()
    timed = blocks[1:]
    return (
        {"setup_s": median(startups), **end_to_end(timed)},
        [f"{len(timed)} timed blocks of {BLOCK_FRESH} fresh campaigns per client "
         "after a warm-up block", *notes(merged(timed)), setup_note(startups)],
    )


def block_rate(window: Window) -> float:
    return window.experiments / window.seconds


def fixed_work(span: dict) -> bool:
    """Spans of work the seed fixes: set-up and the first block."""
    return span["run"] == "" or span["run"].startswith("b0.")


def measure_traced(ctx) -> tuple[dict, list[str]]:
    """A traced and an untraced daemon, both running; the clients alternate
    blocks of ``BLOCK_FRESH`` fresh campaigns each between them, traced
    first, until the time is up, so both sides of the tracing overhead see
    the same host conditions.  Layer figures come from block 0."""
    import spans

    daemon_spans = ctx.work / "spans" / "daemon.jsonl"
    daemons = []
    blocks = ([], [])  # untraced, traced
    try:
        daemons.append(Daemon(ctx.work / "untraced"))
        daemons.append(Daemon(ctx.work / "traced", spans_out=daemon_spans))
        start = time.perf_counter()
        k = 0
        while k < 2 or time.perf_counter() - start < ctx.seconds:
            traced = k % 2 == 0
            blocks[traced].append(run_window(
                daemons[traced].port, ctx.seed, ctx.tally, ctx.refs,
                block_fresh(k), tracer=ctx.tracer if traced else None, tag=f"b{k}.",
            ))
            if k == 0:
                engines = daemons[1].health()["engines"]
                journal_bytes = (ctx.work / "traced" / "journal.jsonl").stat().st_size
                block0_end = time.perf_counter()
            k += 1
    finally:
        for daemon in daemons:
            daemon.stop()
    # perf_counter is CLOCK_MONOTONIC, shared by both processes: the
    # daemon's spans that ended by then belong to block 0 or its start-up.
    for span in spans.load(daemon_spans):
        span["run"] = "b0.daemon" if span["end"] <= block0_end else "daemon"
        ctx.tracer.spans.append(span)
    first = blocks[True][0]
    layers = {
        "store.journal_bytes": journal_bytes,
        "service.engine_builds": engines["builds"],
        "service.engine_reuses": engines["reuses"],
        "service.cached_submissions": first.hits,
        **outcomes(first),
        **overhead(max(map(block_rate, blocks[True])),
                   max(map(block_rate, blocks[False]))),
    }
    return layers, [
        f"{k} blocks of {BLOCK_FRESH} fresh campaigns per client, alternating "
        "traced and untraced daemons",
        "traced block 0: " + describe(first),
    ]
