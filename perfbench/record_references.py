"""Record the output references the benchmark compares its runs with.

Usage (from the checkout root)::

    python3 perfbench/record_references.py

For each workload and each seed in :data:`SEEDS` this runs the workload's
untimed reference computation — the same cells, rounds or submissions a
timed run makes — and writes the digests to ``perfbench/references.json``.
Seed 1 is the default seed; seed 7 is held out (never used while tuning the
benchmark).  Re-record only when the program's outputs are meant to change.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys

from harness import REFERENCES, ROOT, SRC

WORKLOADS = ("fig11_sweep", "fig12_store", "service_mix")
#: The default seed and the held-out one.
SEEDS = (1, 7)


def main() -> int:
    sys.path.insert(0, str(SRC))
    data = {}
    work = ROOT / ".perfbench_work" / "references"
    try:
        for name in WORKLOADS:
            workload = importlib.import_module(name)
            for seed in SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                data.setdefault(name, {})[str(seed)] = workload.references(seed, work)
                print(f"{name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
