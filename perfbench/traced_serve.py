"""Run ``repro serve`` with the benchmark's layer tracer installed.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python perfbench/traced_serve.py --spans SPANS.json -- <repro serve arguments>

Installs the same runtime wrappers as the traced sweeps, calls the normal
``serve`` entry point, and writes every recorded span to ``--spans`` once
the server has drained (SIGTERM).
"""

from __future__ import annotations

import argparse
import sys

from tracer import Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans at drain")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    tracer = Tracer().install()
    from repro.api.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
