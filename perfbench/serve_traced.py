"""Run the campaign CLI with the benchmark's span tracer installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.jsonl serve --store DIR ...``.
Everything after the span file is passed to ``python -m repro.experiments``
unchanged; the spans the process recorded are written to the file when the
CLI returns (for ``serve``, after SIGINT stops the daemon).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402


def main() -> int:
    from repro.experiments.__main__ import main as cli

    out = Path(sys.argv[1])
    tracer = spans.install(spans.Tracer())
    try:
        return cli(sys.argv[2:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
