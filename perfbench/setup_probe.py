"""One fresh process's set-up of a workload, for timing ``setup_s``.

Usage: ``python3 perfbench/setup_probe.py fig11_sweep``.  Imports the
program, runs the workload's ``setup()`` (compile modules, build and warm
injectors), prints ``ready`` and exits; the caller times launch to
``ready``.
"""

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    importlib.import_module(sys.argv[1]).setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
