"""Regenerate reference.json, the frozen outputs run.py checks against.

    python3 perfbench/freeze_reference.py

Run it only when a change is meant to alter outputs; a change that
claims a speed-up must leave reference.json as it is.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, capture, catalog_digest, import_package, verdict_codes


def main() -> int:
    import_package()
    import comaxlat.cli as cli
    from comaxlat import enumerated_universe, run_theorem_suite

    with tempfile.TemporaryDirectory() as tmp:
        code, stdout = capture(
            cli.main, ["enumerate", "--size", "7", "--allow-size-7", "--out", tmp]
        )
        if code != 0:
            raise SystemExit(f"enumerate exited {code}")
        digest = catalog_digest(Path(tmp))
    verdicts = {
        L.name: verdict_codes(run_theorem_suite(L))
        for L in enumerated_universe(7, size_cap=7)
    }
    ref = {
        "enumerate": {"stdout": stdout, "catalog_sha256": digest},
        "theorems": {"verdicts": verdicts},
    }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
