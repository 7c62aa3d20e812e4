"""Traced ``repro serve``: install the probes, then run the CLI server.

Usage (the benchmark starts it; the spans file is written on exit)::

    python perfbench/serve_launch.py SPANS.json

The server is the same ``PredictionServer`` that ``repro serve --port 0``
runs, in its default configuration.
"""

import sys
from pathlib import Path

import probes


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    import repro.cli
    import repro.serve  # noqa: F401  (probes patch the loaded modules)

    tracer = probes.Tracer()
    probes.install_serve(tracer)
    try:
        return repro.cli.main(["serve", "--port", "0"])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
