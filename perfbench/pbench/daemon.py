"""Launch ``repro serve`` with the layer wrappers installed.

    python3 -m pbench.daemon --trace-dir DIR -- serve --workers 2 ...

With ``--trace-dir`` every span the front and its forked workers record
is appended to ``DIR/spans-<pid>.ndjson`` (workers exit without running
``atexit``, so spans are written as each request's outermost span
closes).  Without it this is plain ``repro serve``.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if args.trace_dir:
        from .layers import Instrumentation
        from .tracing import Tracer

        Instrumentation(Tracer(args.trace_dir)).install()
    from repro.cli import main as repro_main

    return repro_main(cli)


if __name__ == "__main__":
    sys.exit(main())
