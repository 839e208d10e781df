"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments table1 [--scale smoke|quick|full]
    python -m repro.experiments fig10
    python -m repro.experiments fig11 [--scale full] [--benchmark stencil ...]
    python -m repro.experiments fig12 [--scale full]
    python -m repro.experiments all [--json-dir results/]
    python -m repro.experiments fig11 --store store/   # record as you go
    python -m repro.experiments status --store store/  # progress per cell
    python -m repro.experiments resume --store store/  # finish what's stored
    python -m repro.experiments report --store store/  # tables, no execution
    python -m repro.experiments fig11 --store sweep/ --shards 2/4  # one stripe
    python -m repro.experiments fig11 --store sweep/ --shards 4    # simulated cluster
    python -m repro.experiments merge --store sweep/   # shards -> serial journal
    python -m repro.experiments verify --store DIR     # integrity check, no execution
    python -m repro.experiments serve --store DIR      # multi-tenant campaign daemon
    python -m repro.experiments submit --workload vcopy --category pure-data
    python -m repro.experiments watch --campaign KEY   # stream SSE progress
    python -m repro.experiments status --store DIR --json  # machine-readable rows

``--shards i/N`` runs stripe ``i`` of an N-way partition of the campaign
schedule into its own store at ``<store>/shard-i/`` — run the N stripes on
N hosts against a shared filesystem (or N processes here), then ``merge``
reassembles ``<store>/merged/`` byte-identical to a single-host ``--shards
1`` run.  A bare ``--shards N`` does all of that locally in N forked
processes.  ``--shards`` (like ``--jobs``) never enters experiment keys:
shard runs disable the convergence early-exit and always cover the full
``max_campaigns`` budget, so every stripe sees the same schedule.

``--jobs N`` fans the fault-injection campaigns (fig11/fig12/vecdiff) out
over N worker processes; results are bit-identical to ``--jobs 1``.

``--store DIR`` journals every fault-injection experiment into a durable
campaign store as it completes (and memoizes the non-campaign tables).  An
interrupted run loses at most one in-flight batch; ``resume`` replays the
stored experiments and executes only the remainder — the finished campaign
is byte-identical to one that never crashed, at any ``--jobs`` and across
engines.  ``report`` rebuilds any stored experiment's tables from the
journal alone.  ``--abort-after N`` deliberately crashes a recorded run
after N new experiments (testing hook for the resume machinery).

``--engine direct|instrumented|compiled`` selects the injection engine
(fig11/fig12/vecdiff/ablations).  All engines produce bit-identical
experiment streams; ``direct`` (the default) folds fault sites into the
decoded interpreter, ``instrumented`` splices VULFI's ``injectFault<Ty>Ty``
calls into a cloned module, and ``compiled`` exec-compiles superblock
chains into specialized closures (fastest on raw dispatch).

``--checkpoint-interval N`` records a golden VM snapshot every N dynamic
sites (fig11/fig12/vecdiff; off by default); faulty runs then restore the
nearest snapshot before their target site and replay only the suffix —
bit-identical to full replay.

Throughput is measured outside this CLI: ``perfbench/run.py`` is the
end-to-end and per-layer benchmark, and ``benchmarks/test_speed_ratios.py``
holds the engine speed ratios.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..core.injector import DEFAULT_ENGINE, ENGINES
from . import EXPERIMENTS


#: CLI verbs that operate on an existing store instead of running anything.
STORE_COMMANDS = ("status", "resume", "report", "merge", "verify")

#: CLI verbs for the campaign service (see :mod:`repro.service`):
#: ``serve`` runs the daemon, ``submit`` posts one campaign (or runs it
#: in-process with ``--local``), ``watch`` tails a campaign's SSE stream.
SERVICE_COMMANDS = ("serve", "submit", "watch")

#: Experiments that accept ``--shards`` (campaign sweeps; the memoized
#: table experiments have no schedule to stripe).
SHARDABLE = ("fig11", "fig12", "vecdiff")

#: Campaign experiments whose cell set ``--benchmark`` can restrict.
BENCHMARK_FILTERED = ("fig11", "vecdiff")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments")
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", *STORE_COMMANDS, *SERVICE_COMMANDS],
    )
    parser.add_argument("--scale", choices=("smoke", "quick", "full"), default="quick")
    parser.add_argument(
        "--benchmark",
        action="append",
        help="restrict fig11/vecdiff to specific benchmarks (repeatable; "
        "for vecdiff, a base kernel like gen-map0 or a form workload name)",
    )
    parser.add_argument("--json-dir", type=Path, help="also dump JSON reports here")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for campaign experiments (bit-identical to 1)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help=f"injection engine for campaign experiments (default: "
        f"{DEFAULT_ENGINE}; all engines are bit-identical — 'instrumented' "
        "is VULFI's IR-splicing reference semantics, 'compiled' the "
        "threaded-code superblock engine)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="N",
        help="record a golden VM snapshot every N dynamic sites; faulty "
        "runs restore the nearest one before their target site "
        "(bit-identical prefix skipping; default off)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="journal experiments into a durable campaign store at DIR "
        "(created if missing); also the target of status/resume/report",
    )
    parser.add_argument(
        "--abort-after",
        type=int,
        default=None,
        metavar="N",
        help="crash deliberately after N newly executed experiments "
        "(requires --store; exercises the resume machinery)",
    )
    parser.add_argument(
        "--shards",
        default=None,
        metavar="SPEC",
        help="partition the campaign schedule: 'i/N' runs stripe i into "
        "<store>/shard-i/ (one distributed worker); a bare N forks N such "
        "runs locally and merges them; '1' is the full-budget serial "
        "baseline the merged journal is byte-identical to (fig11/fig12/"
        "vecdiff, with --store)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="output store directory for merge (default: <store>/merged)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output for status/report (the same schema "
        "the campaign service streams over SSE and serves at /v1/status)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="campaign service address"
    )
    parser.add_argument(
        "--port", type=int, default=8765, help="campaign service port"
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        metavar="N",
        help="serve: campaigns executing at once (queued beyond that)",
    )
    parser.add_argument(
        "--workload", default=None, help="submit: registry workload name"
    )
    parser.add_argument(
        "--category", default="pure-data", help="submit: fault-site category"
    )
    parser.add_argument(
        "--target", default="avx", help="submit: ISA target (avx|sse)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="submit: campaign seed (default: the fig11 cell seed, so the "
        "journal matches a CLI fig11 run of the same cell)",
    )
    parser.add_argument("--tenant", default="cli", help="submit: tenant name")
    parser.add_argument(
        "--priority",
        type=int,
        default=1,
        help="submit: weighted-fair share under contention (1-16)",
    )
    parser.add_argument(
        "--local",
        action="store_true",
        help="submit: run the campaign in this process against --store "
        "(no daemon; the cold baseline the service benchmark compares to)",
    )
    parser.add_argument(
        "--campaign", default=None, metavar="KEY", help="watch: campaign key"
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="submit: stream the campaign's events after submitting",
    )
    args = parser.parse_args(argv)
    if args.experiment in STORE_COMMANDS and args.store is None:
        parser.error(f"{args.experiment} requires --store DIR")
    if args.abort_after is not None and args.store is None:
        parser.error("--abort-after requires --store")

    if args.experiment in SERVICE_COMMANDS:
        if args.experiment == "serve" and args.store is None:
            parser.error("serve requires --store DIR")
        if args.experiment == "submit" and args.workload is None:
            parser.error("submit requires --workload NAME")
        if args.experiment == "submit" and args.local and args.store is None:
            parser.error("submit --local requires --store DIR")
        if args.experiment == "watch" and args.campaign is None:
            parser.error("watch requires --campaign KEY")
        if args.experiment == "serve":
            return _serve(args)
        if args.experiment == "submit":
            return _submit(args)
        return _watch(args)

    shards = None
    if args.shards is not None:
        from ..store import StoreError, parse_shards

        if args.experiment not in SHARDABLE:
            parser.error(
                f"--shards applies to {', '.join(SHARDABLE)}, not "
                f"{args.experiment} (a resumed shard store remembers its "
                f"own stripe)"
            )
        try:
            shards = parse_shards(args.shards)
        except StoreError as exc:
            parser.error(str(exc))
        if args.store is None:
            parser.error("--shards requires --store (shards are stores)")

    # merge / verify / sharded status never open (or create) a store in
    # this process — they inspect what shard runs left behind.
    if args.experiment == "merge":
        return _merge(args)
    if args.experiment == "verify":
        return _verify(args)
    if args.store is not None and args.experiment in (
        "status", "resume", "report"
    ):
        from ..store import is_shard_parent

        if is_shard_parent(args.store):
            if args.experiment == "status":
                from ..store import render_sharded_status

                print(render_sharded_status(args.store))
                return 0
            if args.experiment == "resume":
                return _resume_shard_parent(args)
            # report: the merged store is the serial-identical journal;
            # point at it if it exists, otherwise ask for a merge first.
            merged = args.store / "merged"
            if not (merged / "STORE").exists():
                print(
                    f"{args.store} holds unmerged shard stores; run "
                    f"`merge --store {args.store}` first, then report",
                    file=sys.stderr,
                )
                return 3
            args.store = merged

    # A bare --shards N>1 is the simulated cluster: each stripe opens its
    # own store inside a forked child, so no store opens here either.
    if isinstance(shards, int) and shards > 1:
        return _run_cluster(args, shards)

    store = None
    shard_spec = None
    if args.store is not None:
        from ..store import CampaignStore, ShardSpec, shard_dir

        if isinstance(shards, ShardSpec):
            store = CampaignStore(shard_dir(args.store, shards.index))
            store.set_shard(shards)
            shard_spec = shards
        else:
            store = CampaignStore(args.store)
            if shards == 1:
                store.set_shard(ShardSpec(0, 1))
            # A store that is one stripe of a sweep stays one: plain runs
            # and resumes pick the pinned spec back up.
            shard_spec = store.shard_spec()

    try:
        if args.experiment == "status":
            if args.json:
                import json as _json

                from ..service.protocol import status_payload

                print(_json.dumps(status_payload(store), indent=2))
            else:
                print(store.render_status())
            return 0
        if args.experiment == "report":
            return _report_from_store(store, args)
        if args.experiment == "resume":
            return _resume(store, args, shard=shard_spec)
        return _run_experiments(store, args, shard=shard_spec)
    finally:
        if store is not None:
            if shard_spec is not None:
                store.save_shard_state()
            store.close()


def _run_one(
    name: str, args, store=None, benchmarks=None, scale=None, engine=None,
    shard=None,
):
    """Dispatch one experiment driver with the CLI's knobs."""
    mod = EXPERIMENTS[name]
    scale = scale or args.scale
    engine = engine if engine is not None else (args.engine or DEFAULT_ENGINE)
    interval = args.checkpoint_interval
    if name in BENCHMARK_FILTERED:
        return mod.run(
            scale, benchmarks=benchmarks, jobs=args.jobs, engine=engine,
            checkpoint_interval=interval, store=store,
            abort_after=args.abort_after, shard=shard,
        )
    if name == "fig12":
        return mod.run(
            scale, jobs=args.jobs, engine=engine, checkpoint_interval=interval,
            store=store, abort_after=args.abort_after, shard=shard,
        )
    if name == "ablations":
        return mod.run(scale, engine=engine, store=store)
    return mod.run(scale, store=store)


def _emit(name: str, report, args) -> None:
    print(EXPERIMENTS[name].render(report))
    if args.json_dir:
        args.json_dir.mkdir(parents=True, exist_ok=True)
        report.save(args.json_dir / f"{name}.json")


def _run_experiments(store, args, shard=None) -> int:
    from ..store import CampaignAborted

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.time()
        benchmarks = args.benchmark if name in BENCHMARK_FILTERED else None
        try:
            report = _run_one(
                name, args, store=store, benchmarks=benchmarks,
                shard=shard if name in SHARDABLE else None,
            )
        except CampaignAborted as aborted:
            print(f"{name}: {aborted}", file=sys.stderr)
            print(
                f"resume with: python -m repro.experiments resume --store "
                f"{args.store}",
                file=sys.stderr,
            )
            return 3
        _emit(name, report, args)
        print(f"\n[{name} completed in {time.time() - t0:.1f}s at scale={args.scale}]\n")
    return 0


def _resume(store, args, shard=None) -> int:
    """Finish every incomplete cell the store has manifests for.

    A shard store resumes as the stripe it was pinned to (``shard.json``);
    ``--shards`` is never needed — or allowed — to resume one.
    """
    plans = store.resume_plans()
    if not plans:
        print(f"{store.root}: nothing to resume (empty store)")
        return 0
    for plan in plans:
        name = plan["experiment"]
        if name not in EXPERIMENTS:
            print(f"skipping unknown stored experiment {name!r}", file=sys.stderr)
            continue
        t0 = time.time()
        report = _run_one(
            name,
            args,
            store=store,
            benchmarks=plan["benchmarks"],
            scale=plan["scale"],
            engine=plan["engine"],
            shard=shard if name in SHARDABLE else None,
        )
        _emit(name, report, args)
        stripe = f" (stripe {shard.spec})" if shard is not None else ""
        print(
            f"\n[{name} resumed in {time.time() - t0:.1f}s at "
            f"scale={plan['scale']}{stripe}]\n"
        )
    return 0


def _resume_shard_parent(args) -> int:
    """Resume every ``shard-*/`` store under a sweep parent, in turn."""
    from ..store import CampaignStore, find_shard_dirs

    code = 0
    for path in find_shard_dirs(args.store):
        store = CampaignStore(path)
        try:
            code = max(code, _resume(store, args, shard=store.shard_spec()))
        finally:
            store.save_shard_state()
            store.close()
    if code == 0:
        print(
            f"all shards of {args.store} resumed — `merge --store "
            f"{args.store}` assembles the serial-identical journal."
        )
    return code


def _merge(args) -> int:
    """``merge``: reassemble shard journals into one serial store."""
    from ..store import StoreError, merge_shards

    try:
        report = merge_shards(args.store, out=args.out)
    except StoreError as exc:
        print(f"merge: {exc}", file=sys.stderr)
        return 3
    print(report.render())
    return 0


def _verify(args) -> int:
    """``verify``: integrity-check a store (or every shard of a sweep).

    Exit 0 when every journal checks out, 3 otherwise; never executes an
    experiment and never mutates the store.
    """
    from ..store import find_shard_dirs, is_shard_parent, verify_store

    if is_shard_parent(args.store):
        targets = find_shard_dirs(args.store)
        merged = Path(args.store) / "merged"
        if (merged / "STORE").exists():
            targets = [*targets, merged]
    else:
        targets = [args.store]
    ok = True
    for target in targets:
        report = verify_store(target)
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 3


def _run_cluster(args, count: int) -> int:
    """A bare ``--shards N``: fork N stripe runs, merge, rebuild, report."""
    from ..analysis.report import rebuild_report
    from ..core.cluster import run_sharded
    from ..errors import ReproError
    from ..store import CampaignStore

    name = args.experiment
    benchmarks = args.benchmark if name == "fig11" else None

    def worker(store, shard):
        _run_one(
            name, args, store=store, benchmarks=benchmarks, shard=shard
        )
        return dict(store.session_counters)

    t0 = time.time()
    try:
        result = run_sharded(args.store, count, worker)
    except ReproError as exc:
        print(f"cluster: {exc}", file=sys.stderr)
        return 3
    print(result.merge.render())
    print()
    merged = CampaignStore(result.merged_store)
    try:
        report = rebuild_report(merged, name)
    finally:
        merged.close()
    _emit(name, report, args)
    print(
        f"\n[{name} completed on {count} simulated hosts in "
        f"{time.time() - t0:.1f}s (slowest shard "
        f"{max(result.shard_seconds):.1f}s, merge "
        f"{result.merge_seconds:.2f}s) at scale={args.scale}; merged store: "
        f"{result.merged_store}]\n"
    )
    return 0


def _report_from_store(store, args) -> int:
    from ..analysis.report import rebuild_report

    names = store.stored_experiments()
    if not names:
        print(f"{store.root}: empty store, nothing to report")
        return 0
    for name in names:
        if name not in EXPERIMENTS:
            print(f"skipping unknown stored experiment {name!r}", file=sys.stderr)
            continue
        report = rebuild_report(store, name)
        if args.json:
            # Exactly the daemon's /v1/report?format=json body: the CLI
            # and the service are byte-interchangeable report sources.
            print(report.to_json())
            if args.json_dir:
                args.json_dir.mkdir(parents=True, exist_ok=True)
                report.save(args.json_dir / f"{name}.json")
        else:
            _emit(name, report, args)
            print()
    return 0


# -- campaign service verbs ----------------------------------------------------


def _serve(args) -> int:
    """``serve``: run the multi-tenant campaign daemon until interrupted."""
    from ..service import CampaignService

    service = CampaignService(
        args.store,
        host=args.host,
        port=args.port,
        jobs=args.jobs if args.jobs > 1 else 0,
        max_concurrent=args.max_concurrent,
    )
    service.serve_forever()
    return 0


def _submission_payload(args) -> dict:
    payload = {
        "workload": args.workload,
        "target": args.target,
        "category": args.category,
        "engine": args.engine or DEFAULT_ENGINE,
        "scale": args.scale,
        "tenant": args.tenant,
        "priority": args.priority,
    }
    if args.seed is not None:
        payload["seed"] = args.seed
    return payload


def _submit(args) -> int:
    import json as _json

    if args.local:
        return _submit_local(args)
    from ..service import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.host, args.port, tenant=args.tenant)
    try:
        ack = client.submit(**_submission_payload(args))
    except (ServiceUnavailable, ValueError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 3
    print(_json.dumps(ack, indent=2))
    if args.watch and not ack.get("cached"):
        return _stream_events(client, ack["campaign"])
    return 0


def _submit_local(args) -> int:
    """``submit --local``: one campaign, this process, no daemon.

    The service benchmark's cold baseline: pays interpreter start-up,
    compilation, and an empty golden cache on every invocation — exactly
    what a warm daemon amortises away.
    """
    from ..service.protocol import BadSubmission, normalize_submission
    from ..service.workers import EngineCache, execute_submission
    from ..store import CampaignStore

    try:
        sub = normalize_submission(_submission_payload(args))
    except BadSubmission as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 3
    store = CampaignStore(args.store)
    try:
        summary = execute_submission(
            store, sub, pool=None, engines=EngineCache(), emit=lambda e: None
        )
    finally:
        store.close()
    totals = summary.totals
    print(
        f"{sub.workload}/{sub.target}/{sub.category}: {totals.total} "
        f"experiments (sdc={totals.sdc} benign={totals.benign} "
        f"crash={totals.crash}), converged={summary.converged}"
    )
    return 0


def _watch(args) -> int:
    from ..service import ServiceClient

    client = ServiceClient(args.host, args.port, tenant=args.tenant)
    return _stream_events(client, args.campaign)


def _stream_events(client, key: str) -> int:
    import json as _json

    from ..service import ServiceUnavailable

    try:
        for name, payload in client.events(key):
            print(_json.dumps({"event": name, **payload}))
            if name == "failed":
                return 3
    except ServiceUnavailable as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
