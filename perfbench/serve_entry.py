"""Benchmark-owned entry point of the thermal service.

Runs ``repro.cli.main(["serve", *args])`` unchanged.  With ``--trace-out
FILE`` it first wraps the program's public calls with the span recorder
(``tracer.py``) and writes the recorded spans to FILE on SIGUSR1, before
the benchmark stops the server with SIGINT.
"""

from __future__ import annotations

import argparse
import signal
import sys


def main() -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace-out", default=None)
    args, serve_args = parser.parse_known_args()
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(args.trace_out))
    from repro.cli import main as cli_main

    return cli_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
