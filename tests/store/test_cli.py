"""End-to-end CLI: record, crash, status, resume, report — one store."""

import json

from repro.experiments.__main__ import main


def _rows(path):
    return json.load(open(path))["rows"]


def test_record_crash_status_resume_report(tmp_path, capsys):
    store = str(tmp_path / "store")
    base = [
        "fig11", "--scale", "smoke", "--benchmark", "chebyshev",
        "--store", store,
    ]

    # A deliberately crashed recorded run exits nonzero with a resume hint.
    assert main(base + ["--abort-after", "5"]) == 3
    assert "resume" in capsys.readouterr().err

    assert main(["status", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "partial" in out and "pending" in out and "incomplete" in out

    # Resume under a pool, then a storeless clean run: identical rows.
    resumed_dir = tmp_path / "resumed"
    assert (
        main(["resume", "--store", store, "--jobs", "2",
              "--json-dir", str(resumed_dir)])
        == 0
    )
    capsys.readouterr()
    clean_dir = tmp_path / "clean"
    assert (
        main(["fig11", "--scale", "smoke", "--benchmark", "chebyshev",
              "--json-dir", str(clean_dir)])
        == 0
    )
    capsys.readouterr()
    assert _rows(resumed_dir / "fig11.json") == _rows(clean_dir / "fig11.json")

    assert main(["status", "--store", store]) == 0
    assert "all cells complete" in capsys.readouterr().out

    # `report` rebuilds the same table from the journal alone.
    rebuilt_dir = tmp_path / "rebuilt"
    assert main(["report", "--store", store, "--json-dir", str(rebuilt_dir)]) == 0
    capsys.readouterr()
    assert _rows(rebuilt_dir / "fig11.json") == _rows(clean_dir / "fig11.json")


def test_store_commands_require_store(capsys):
    for verb in ("status", "resume", "report", "merge", "verify"):
        try:
            main([verb])
        except SystemExit as exc:
            assert exc.code == 2
        else:  # pragma: no cover
            raise AssertionError("expected SystemExit")
    try:
        main(["fig11", "--abort-after", "3"])
    except SystemExit as exc:
        assert exc.code == 2
    capsys.readouterr()


def test_shards_flag_rejected_outside_shardable_runs(capsys, tmp_path):
    for argv in (
        ["fig10", "--shards", "2"],  # not a shardable experiment
        ["fig11", "--scale", "smoke", "--shards", "2"],  # no --store
        ["fig11", "--store", str(tmp_path / "s"), "--shards", "5/4"],
    ):
        try:
            main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:  # pragma: no cover
            raise AssertionError(f"expected SystemExit for {argv}")
    capsys.readouterr()


def test_sharded_cli_run_merges_byte_identically(tmp_path, capsys):
    base = ["fig11", "--scale", "smoke", "--benchmark", "chebyshev"]
    serial = tmp_path / "serial"
    assert main(base + ["--store", str(serial), "--shards", "1"]) == 0
    capsys.readouterr()

    # `--shards 4` forks four shard runs, merges, and rebuilds the report.
    parent = tmp_path / "cluster"
    serial_dir = tmp_path / "serial_json"
    cluster_dir = tmp_path / "cluster_json"
    assert (
        main(base + ["--store", str(parent), "--shards", "4",
                     "--json-dir", str(cluster_dir)])
        == 0
    )
    out = capsys.readouterr().out
    assert "4 simulated hosts" in out

    for name in ("journal.jsonl", "manifests.jsonl"):
        assert (parent / "merged" / name).read_bytes() == (
            serial / name
        ).read_bytes(), name

    # `status --store <parent>` shows per-shard stripes and combined totals.
    assert main(["status", "--store", str(parent)]) == 0
    out = capsys.readouterr().out
    assert "0/4" in out and "3/4" in out and "complete" in out

    # `verify` walks every shard plus the merged store.
    assert main(["verify", "--store", str(parent)]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") >= 5

    # The report rebuilt from the merged journal matches the serial one.
    assert (
        main(["report", "--store", str(serial),
              "--json-dir", str(serial_dir)])
        == 0
    )
    capsys.readouterr()
    assert _rows(cluster_dir / "fig11.json") == _rows(serial_dir / "fig11.json")


def test_merge_verb_and_shard_facet(tmp_path, capsys):
    base = ["fig11", "--scale", "smoke", "--benchmark", "chebyshev"]
    parent = tmp_path / "sweep"

    # Run each stripe separately via the `i/N` facet (one "host" each)...
    for spec in ("0/2", "1/2"):
        assert main(base + ["--store", str(parent), "--shards", spec]) == 0
        capsys.readouterr()

    # ...report on the unmerged parent points at `merge` first...
    assert main(["report", "--store", str(parent)]) == 3
    assert "merge --store" in capsys.readouterr().err

    # ...and the merge verb assembles + verifies the serial journal.
    assert main(["merge", "--store", str(parent)]) == 0
    out = capsys.readouterr().out
    assert "Merged 2 shard(s)" in out and "verify: OK" in out

    # A torn shard tail flips verify and merge to exit 3; a parent-level
    # resume repairs it and the re-merge succeeds.
    journal = parent / "shard-1" / "journal.jsonl"
    good = journal.read_bytes()
    journal.write_bytes(good[:-9])
    assert main(["verify", "--store", str(parent)]) == 3
    capsys.readouterr()
    assert main(["merge", "--store", str(parent)]) == 3
    assert "shard 1/2" in capsys.readouterr().err
    assert main(["resume", "--store", str(parent)]) == 0
    capsys.readouterr()
    assert journal.read_bytes() == good
    assert main(["merge", "--store", str(parent)]) == 0
    capsys.readouterr()


def test_resume_refuses_a_retired_engine(tmp_path, capsys, monkeypatch):
    """A store recorded under an engine name this version no longer has
    (``compiled``, whose chains are now the direct engine) fails resume
    with the typed unknown-engine error instead of a traceback."""
    from repro.core.injector import FaultInjector

    store = str(tmp_path / "store")
    identity = FaultInjector.engine_identity
    monkeypatch.setattr(
        FaultInjector,
        "engine_identity",
        lambda self: {**identity(self), "engine": "compiled"},
    )
    run = ["fig11", "--scale", "smoke", "--benchmark", "stencil", "--store", store]
    assert main(run + ["--abort-after", "3"]) == 3
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["resume", "--store", store]) == 3
    assert "unknown engine 'compiled'" in capsys.readouterr().err
