"""Compare a parent commit with the working tree on the benchmark, in pairs.

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--seed S]

Exports ``HEAD`` with ``git archive`` into a temporary directory and
runs ``perfbench/run.py --trace 0`` of it and of the working tree in
10 alternating pairs for every workload of ``BENCHMARK.json``: the
parent goes first in even pairs and the working tree goes first in odd
ones, so a drift of the host's speed falls on both sides alike.  Pair
``i`` of a workload uses seed ``--seed + i`` on both sides, and every
run lasts the ``run_seconds`` of ``BENCHMARK.json``.  Every run gets a
fresh temporary working directory, so ``.bench_out/`` never lands in a
checkout.

The output JSON holds, per workload and end-to-end metric, the median
and quartiles of each side, every run's value of each side in pair
order, and in how many pairs the working tree did better (lower or
higher, as ``BENCHMARK.json`` says), together with whether every run
was correct and how many items failed.  Each metric also gets a
``verdict`` against its ``bound`` in ``BENCHMARK.json`` (see
:func:`verdict`).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def export(dest: Path) -> str:
    """Unpack ``HEAD`` into ``dest`` and return its full commit id."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD^{commit}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = dest.parent / "parent.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run of ``tree``; its last stdout line as JSON."""
    with tempfile.TemporaryDirectory(prefix="bench-run-") as cwd:
        proc = subprocess.run(
            [
                sys.executable, str(tree / "perfbench" / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ],
            cwd=cwd, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"error: {tree} {workload} seed {seed} exited {proc.returncode}\n"
            + proc.stderr[-2000:]
        )
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """How the working tree's runs of one metric stand against the parent's.

    ``"worse"`` when the change's median is worse than the parent's by
    more than ``bound``, a fraction of the parent's median; otherwise
    ``"unresolved"`` when the parent's spread, (q3 - q1) / median, exceeds
    the bound and not every change run beats every parent run; otherwise
    ``"within_bound"``.
    """
    p, c = summary(parent), summary(change)
    base = abs(p["median"])
    loss = c["median"] - p["median"] if lower else p["median"] - c["median"]
    if loss > bound * base:
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if p["q3"] - p["q1"] > bound * base and not beats_all:
        return "unresolved"
    return "within_bound"


def compare(parent: list[dict], change: list[dict], spec: list[dict]) -> dict:
    """Per-metric summaries and runs of both sides, the working tree's wins
    and the verdict against the metric's bound."""
    out = {}
    for m in spec:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        lower = m["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": summary(p),
            "change": summary(c),
            "runs": {"parent": p, "change": c},
            "change_wins": wins,
            "pairs": len(p),
            "verdict": verdict(p, c, m["bound"], lower),
        }
    return out


def side(runs: list[dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    doc = {
        "pairs": PAIRS,
        "seeds": [args.seed, args.seed + PAIRS - 1],
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        parent_tree.mkdir()
        doc["parent"] = export(parent_tree)
        doc["change"] = "working tree"
        for workload in names:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for who in order:
                    tree = parent_tree if who == "parent" else ROOT
                    runs[who].append(
                        run_once(tree, workload, args.seed + i, spec["run_seconds"])
                    )
                print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
            doc["workloads"][workload] = {
                "parent": side(runs["parent"]),
                "change": side(runs["change"]),
                "metrics": compare(runs["parent"], runs["change"], spec["end_to_end"]),
            }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
