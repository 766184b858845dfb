"""Compare the theorem suite of a parent commit and the working tree, in process.

    python3 tools/suite_ab.py [--passes 40] [--seed 1]

Exports ``HEAD`` with ``git archive`` (as ``tools/bench_pairs.py``
does) and imports its ``comaxlat`` and the working tree's side by side
in one process, as the packages ``comaxlat_parent`` and
``comaxlat_change``.  Each side builds its own universe up to size 7
and draws the sample of the benchmark's ``theorems`` workload from it:
a seeded quarter of each size class (``perfbench/run.py``,
``theorems_setup``).  The passes alternate between the sides, the
parent first in even passes, and each times ``run_theorem_suite`` over
the whole sample with ``time.process_time``, so a drift of the host's
speed falls on both sides alike.  Pass ``i`` of each side forms pair
``i``.  Before timing, the two sides must give the same
``classify_lattice`` report on every lattice of the universe, as
``dataclasses.astuple``, and the same entries on every lattice of the
sample.

Prints each side's median and quartiles in seconds per pass, the
change's median against the parent's, and in how many pairs the change
was faster.  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import random
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, export, summary as quartiles

SIDES = ("parent", "change")
# The share of each size class that one pass checks, as perfbench's
# THEOREMS_SHARE.
SHARE = 0.25


def load(src: Path, name: str):
    """Import the ``comaxlat`` package under ``src`` as ``name``."""
    pkg = src / "comaxlat"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def universe(package) -> list:
    """Every lattice up to size 7."""
    return package.enumeration.enumerated_universe(7, size_cap=7)


def sample(lattices: list, seed: int) -> list:
    """A seeded share of every size class of ``lattices``."""
    rng = random.Random(seed)
    by_size: dict[int, list] = {}
    for L in lattices:
        by_size.setdefault(L.n, []).append(L)
    out = []
    for n in sorted(by_size):
        group = by_size[n]
        out.extend(rng.sample(group, max(1, round(len(group) * SHARE))))
    return out


def reports(package, lattices: list) -> list:
    """The ``classify_lattice`` report of each lattice, as a plain tuple."""
    return [dataclasses.astuple(package.classify_lattice(L)) for L in lattices]


def entries(package, lattices: list) -> list:
    """Every entry of the suite on each lattice, as plain tuples."""
    return [
        [
            (e.theorem_id, e.hypotheses_hold, e.conclusion_holds, e.witness)
            for e in package.run_theorem_suite(L).entries
        ]
        for L in lattices
    ]


def one_pass(package, lattices: list) -> float:
    suite = package.run_theorem_suite
    start = time.process_time()
    for L in lattices:
        suite(L)
    return time.process_time() - start


def summary(parent: list[float], change: list[float]) -> dict:
    """Median and quartiles of each side, the change's median over the
    parent's, and the pairs in which the change took less time."""
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"],
        "wins": sum(y < x for x, y in zip(parent, change)),
        "pairs": len(parent),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="suite-ab-") as tmp:
        parent_tree = Path(tmp) / "tree"
        parent_tree.mkdir()
        sha = export(parent_tree)
        packages = {
            "parent": load(parent_tree / "src", "comaxlat_parent"),
            "change": load(ROOT / "src", "comaxlat_change"),
        }
        universes = {who: universe(packages[who]) for who in SIDES}
        if reports(packages["parent"], universes["parent"]) != reports(
            packages["change"], universes["change"]
        ):
            print("error: the two sides classify differently", file=sys.stderr)
            return 1
        lattices = {who: sample(universes[who], args.seed) for who in SIDES}
        if entries(packages["parent"], lattices["parent"]) != entries(
            packages["change"], lattices["change"]
        ):
            print("error: the two sides give different entries", file=sys.stderr)
            return 1
        times: dict[str, list[float]] = {who: [] for who in SIDES}
        for i in range(args.passes):
            for who in SIDES if i % 2 == 0 else SIDES[::-1]:
                times[who].append(one_pass(packages[who], lattices[who]))

    s = summary(times["parent"], times["change"])
    print(f"parent {sha[:12]} against the working tree: {len(lattices['change'])} "
          f"lattices, {args.passes} passes per side, seed {args.seed}")
    for who in SIDES:
        q = s[who]
        print(f"{who:>6}: median {q['median']:.4f} s, "
              f"quartiles {q['q1']:.4f}-{q['q3']:.4f} s")
    print(f"change/parent {s['ratio']:.3f} ({(s['ratio'] - 1) * 100:+.1f} %), "
          f"change faster in {s['wins']}/{s['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
