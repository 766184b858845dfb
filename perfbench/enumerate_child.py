"""One size-7 enumeration in a fresh interpreter.

The package caches the universe per process, so a repeat in the same
process would cost nothing; ``run.py`` starts this script once per
pass.  It prints one JSON line: the import time and the wall time of
``comaxlat.cli.main`` (both corrected for the host's speed, see
speed.py), the raw wall time, the exit code and stdout of ``main``, and
``ru_maxrss``.  With ``--trace PATH`` the layer wrappers are installed,
the spans are written to PATH and the per-layer metrics are added.

    python3 perfbench/enumerate_child.py --out CATALOG_DIR [--trace PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

from speed import SpeedProbe

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    stdout = io.StringIO()
    with SpeedProbe() as probe:
        imported = probe.mark()
        import comaxlat.cli as cli

        ready = probe.mark()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(probe.clock)
            tracer.install()
        with contextlib.redirect_stdout(stdout):
            start = probe.mark()
            code = cli.main(["enumerate", "--size", "7", "--allow-size-7", "--out", args.out])
            end = probe.mark()
    result = {
        "import_s": probe.seconds(imported, ready),
        "wall_s": probe.seconds(start, end),
        "raw_wall_s": probe.raw(start, end),
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.dump(Path(args.trace), workload="enumerate")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
