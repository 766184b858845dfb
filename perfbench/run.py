"""End-to-end and per-layer benchmark for comaxlat.

    python3 perfbench/run.py --workload {enumerate,theorems,user_files}
        --seed N --seconds S --trace {0,1}

Drives the package from outside, through its public functions and
``comaxlat.cli.main`` called in-process, on the sources in ``src/`` of
the checkout this file sits in.  Every output is checked against a
reference before a number is reported.

With ``--trace 0`` the run repeats one pass of its workload for about
``--seconds`` seconds (a fixed number of passes, see PASS_S) and prints
the end-to-end metrics.  With ``--trace 1`` it makes one untraced and one
traced pass and prints the per-layer metrics of the traced one (see
tracing.py).  Times are corrected for the host's speed (see speed.py).
The lines before the last give every metric by name and unit; the last
line of stdout is one JSON object.  Raw samples and the spans of a
traced run go to ``.bench_out/``.  Metric names, units and bounds live
in BENCHMARK.json; README.md here says what each one means and what
should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")
REFERENCE = HERE / "reference.json"

MIN_PASSES = 3
SETUP_REPEATS = 3
# Corrected seconds one pass takes at this commit.  A run makes
# max(MIN_PASSES, round(--seconds / PASS_S)) passes, so every run of a
# workload has the same number of samples and its percentiles stay
# comparable between runs, hosts and commits.
PASS_S = {"enumerate": 8.7, "theorems": 3.1, "user_files": 5.0}
# Share of each size class of the universe up to size 7 that one theorems
# pass checks: it keeps the size mix and lets a run make several passes.
THEOREMS_SHARE = 0.25
# user_files: (|A|, |B|, files per pass).  n = |A|*|B| stays within 8..20,
# where the exponential checker paths dominate but every item stays
# bounded.  A file's cost depends mostly on n, and the counts put the
# median sample in the middle of the n=12 block and the tail sample in
# the middle of the n=16 block, so neither hangs on one file's cost.
USER_SHAPES = (
    (2, 4, 2),
    (3, 3, 2),
    (2, 5, 3),
    (2, 6, 4),
    (3, 4, 4),
    (3, 5, 2),
    (4, 4, 3),
    (3, 6, 1),
    (4, 5, 1),
)
CHILD_TIMEOUT_S = 150


@dataclass
class Run:
    """What one invocation measured; times are corrected seconds."""

    attempted: int = 0
    failed: int = 0
    import_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    raw_pass_s: list[float] = field(default_factory=list)
    item_s: list[float] = field(default_factory=list)
    rss_kb: list[int] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def import_package() -> None:
    sys.path.insert(0, str(SRC))
    import comaxlat  # noqa: F401
    import comaxlat.cli  # noqa: F401


def capture(fn, *args):
    """Call ``fn`` with stdout captured; return (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def passes(args) -> range:
    return range(max(MIN_PASSES, round(args.seconds / PASS_S[args.workload])))


def timed(probe: SpeedProbe, fn, *args):
    """(result, corrected seconds) of one call."""
    start = probe.mark()
    result = fn(*args)
    return result, probe.seconds(start, probe.mark())


def item_pass(run: Run, probe: SpeedProbe, items: list, do_item) -> tuple[float, list]:
    """Apply ``do_item`` to every item, timing each; (pass seconds, outputs)."""
    marks, outputs = [], []
    start = probe.mark()
    for item in items:
        before = probe.mark()
        outputs.append(do_item(item))
        marks.append((before, probe.mark()))
    end = probe.mark()
    run.item_s.extend(probe.seconds(a, b) for a, b in marks)
    run.raw_pass_s.append(probe.raw(start, end))
    return probe.seconds(start, end), outputs


def finish_trace(run: Run, tracer, args, overhead_s: float) -> None:
    run.layers = tracer.metrics()
    run.layers["trace.overhead_s"] = overhead_s
    tracer.dump(OUT / f"trace-{args.workload}.json", workload=args.workload, seed=args.seed)


# -- enumerate ------------------------------------------------------------------


def catalog_digest(directory: Path) -> str:
    """sha256 over the catalog files, each taken by name and then bytes."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir(), key=lambda p: p.name):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def enumerate_problem(stdout: str, exit_code: int, digest: str, ref: dict) -> str | None:
    """Why an enumeration's output differs from the frozen one, or None."""
    if exit_code != 0:
        return f"enumerate: exit code {exit_code}"
    if stdout != ref["stdout"]:
        return f"enumerate: stdout {stdout!r}"
    if digest != ref["catalog_sha256"]:
        return f"enumerate: catalog sha256 {digest}"
    return None


def enumerate_once(run: Run, ref: dict, trace_path: Path | None = None) -> dict:
    """One enumeration in a fresh interpreter; its result line, or {}."""
    catalog = Path(tempfile.mkdtemp(prefix="catalog-", dir=OUT))
    try:
        cmd = [sys.executable, str(HERE / "enumerate_child.py"), "--out", str(catalog)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            run.check(f"enumerate: child exited {proc.returncode}")
            return {}
        res = json.loads(proc.stdout.decode().splitlines()[-1])
        run.check(enumerate_problem(res["stdout"], res["exit_code"], catalog_digest(catalog), ref))
        return res
    finally:
        shutil.rmtree(catalog, ignore_errors=True)


def workload_enumerate(args, run: Run) -> None:
    # The output is exhaustive, so nothing is drawn from the seed.
    ref = load_reference()["enumerate"]
    if args.trace:
        plain = enumerate_once(run, ref)
        traced = enumerate_once(run, ref, OUT / "trace-enumerate.json")
        run.layers = dict(traced.get("layers", {}))
        if plain and traced:
            run.layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return

    for _ in passes(args):
        res = enumerate_once(run, ref)
        if res:
            run.setup_s.append(res["import_s"])
            run.pass_s.append(res["wall_s"])
            run.raw_pass_s.append(res["raw_wall_s"])
            run.item_s.append(res["wall_s"])
            run.rss_kb.append(res["maxrss_kb"])


# -- theorems -------------------------------------------------------------------


def verdict_codes(report) -> str:
    return "".join(
        "n" if e.conclusion_holds is None else "p" if e.conclusion_holds else "f"
        for e in report.entries
    )


def theorem_problem(report, ref: dict) -> str | None:
    """Why a suite report differs from the frozen verdicts, or None."""
    if not report.overall_pass:
        return f"theorems: {report.lattice_name} overall fail"
    got, want = verdict_codes(report), ref["verdicts"].get(report.lattice_name)
    if got != want:
        return f"theorems: {report.lattice_name} verdicts {got}, frozen {want}"
    return None


def theorems_setup(seed: int) -> list:
    """A seeded share of every size class of the universe up to size 7."""
    from comaxlat import enumeration

    rng = random.Random(seed)
    by_size: dict[int, list] = {}
    for L in enumeration.enumerated_universe(7, size_cap=7):
        by_size.setdefault(L.n, []).append(L)
    out = []
    for n in sorted(by_size):
        group = by_size[n]
        out.extend(rng.sample(group, max(1, round(len(group) * THEOREMS_SHARE))))
    return out


def theorems_pass(run: Run, probe: SpeedProbe, lattices: list, suite, rng: random.Random) -> float:
    ref = load_reference()["theorems"]
    order = list(lattices)
    rng.shuffle(order)
    seconds, reports = item_pass(run, probe, order, suite)
    for rep in reports:
        run.check(theorem_problem(rep, ref))
    return seconds


def workload_theorems(args, run: Run, probe: SpeedProbe) -> None:
    from comaxlat import enumeration, run_theorem_suite

    if args.trace:
        from tracing import Tracer

        lattices = theorems_setup(args.seed)
        plain = theorems_pass(run, probe, lattices, run_theorem_suite, random.Random(args.seed))
        tracer = Tracer(probe.clock)
        tracer.install()
        try:
            enumeration._UNIVERSE_CACHE.clear()  # trace a real build, not a cache hit
            lattices = theorems_setup(args.seed)
            traced = theorems_pass(run, probe, lattices, tracer.theorem_suite, random.Random(args.seed))
        finally:
            tracer.uninstall()
        finish_trace(run, tracer, args, traced - plain)
        return

    for _ in range(SETUP_REPEATS):
        # the package caches the universe per process; each set-up must build it
        enumeration._UNIVERSE_CACHE.clear()
        lattices, seconds = timed(probe, theorems_setup, args.seed)
        run.setup_s.append(seconds)
    rng = random.Random(args.seed)
    for _ in passes(args):
        run.pass_s.append(theorems_pass(run, probe, lattices, run_theorem_suite, rng))


# -- user_files -----------------------------------------------------------------


def product_spec(A, B, name: str, rng: random.Random):
    """The direct product A x B as a lattice spec, shuffled and relabeled."""
    from comaxlat.core import LatticeSpec, mul_key

    pairs = [(a, b) for a in range(A.n) for b in range(B.n)]
    names = [f"e{i}" for i in range(len(pairs))]
    rng.shuffle(names)
    label = dict(zip(pairs, names))
    elements = list(names)
    rng.shuffle(elements)
    covers = [
        (label[c, b], label[a, b]) for a in range(A.n) for c in A.lower_covers(a) for b in range(B.n)
    ] + [
        (label[a, c], label[a, b]) for b in range(B.n) for c in B.lower_covers(b) for a in range(A.n)
    ]
    rng.shuffle(covers)
    bottom, top = (A.bottom, B.bottom), (A.top, B.top)
    mul = {}
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i:]:
            if bottom in ((a, b), (c, d)) or top in ((a, b), (c, d)):
                continue  # forced by the axioms; a user file may omit it
            mul[mul_key(label[a, b], label[c, d])] = label[A.mul2(a, c), B.mul2(b, d)]
    return LatticeSpec(
        name=name,
        elements=tuple(elements),
        order_pairs=tuple(covers),
        mul_entries=mul,
        bottom=label[bottom],
        top=label[top],
    )


def expected_classification(name: str, ra, rb) -> dict[str, str]:
    """classify output for A x B, derived from the reports of A and B alone."""

    def b(flag: bool) -> str:
        return "true" if flag else "false"

    return {
        "name": name,
        "n": str(ra.n * rb.n),
        "domain": "false",
        "treed": b(ra.is_treed and rb.is_treed),
        "dimension": str(max(ra.dimension, rb.dimension)),
        "cpr_lattice": b(ra.is_cpr_lattice and rb.is_cpr_lattice),
        "cq_lattice": b(ra.is_cq_lattice and rb.is_cq_lattice),
        "cpp_lattice": b(ra.is_cpp_lattice and rb.is_cpp_lattice),
        "dedekind": "false",
    }


def user_file_problem(classified, checked, want: dict[str, str]) -> str | None:
    """Why the (exit code, stdout) of classify and theorems are wrong, or None."""
    (c_code, c_text), (t_code, t_text) = classified, checked
    if c_code != 0 or t_code != 0:
        return f"user_files: {want['name']} exit codes {c_code}, {t_code}"
    if not t_text.endswith("overall=pass\n"):
        return f"user_files: {want['name']} theorems did not pass"
    got = dict(line.split("=", 1) for line in c_text.splitlines())
    wrong = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
    return f"user_files: {want['name']} classify {wrong}" if wrong else None


def user_files_setup(seed: int, directory: Path) -> list[tuple[Path, dict[str, str]]]:
    from comaxlat import (
        PRESET_NAMES,
        classify_lattice,
        enumerated_universe,
        preset,
        serialize_spec,
    )

    rng = random.Random(seed)
    pool: dict[int, list] = {}
    for L in list(enumerated_universe(6)) + [preset(p) for p in PRESET_NAMES]:
        pool.setdefault(L.n, []).append(L)
    files = []
    for p, q, count in USER_SHAPES:
        for _ in range(count):
            A, B = rng.choice(pool[p]), rng.choice(pool[q])
            name = f"P{len(files):02d}_{A.name}x{B.name}"
            path = directory / f"{name}.json"
            path.write_text(serialize_spec(product_spec(A, B, name, rng)), encoding="utf-8")
            want = expected_classification(name, classify_lattice(A), classify_lattice(B))
            files.append((path, want))
    return files


def user_files_pass(run: Run, probe: SpeedProbe, files, rng: random.Random) -> float:
    import comaxlat.cli as cli

    def one_file(item):
        path = str(item[0])
        return capture(cli.main, ["classify", path]), capture(cli.main, ["theorems", path])

    order = list(files)
    rng.shuffle(order)
    seconds, outputs = item_pass(run, probe, order, one_file)
    for (_, want), (classified, checked) in zip(order, outputs):
        run.check(user_file_problem(classified, checked, want))
    return seconds


def workload_user_files(args, run: Run, probe: SpeedProbe) -> None:
    from comaxlat import enumeration

    root = Path(tempfile.mkdtemp(prefix="files-", dir=OUT))
    try:
        if args.trace:
            from tracing import Tracer

            files = user_files_setup(args.seed, root)
            plain = user_files_pass(run, probe, files, random.Random(args.seed))
            tracer = Tracer(probe.clock)
            tracer.install()
            try:
                traced = user_files_pass(run, probe, files, random.Random(args.seed))
            finally:
                tracer.uninstall()
            finish_trace(run, tracer, args, traced - plain)
            return
        for i in range(SETUP_REPEATS):
            enumeration._UNIVERSE_CACHE.clear()  # the components come from a fresh build
            directory = root / f"setup{i}"
            directory.mkdir()
            files, seconds = timed(probe, user_files_setup, args.seed, directory)
            run.setup_s.append(seconds)
        rng = random.Random(args.seed)
        for _ in passes(args):
            run.pass_s.append(user_files_pass(run, probe, files, rng))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def in_process(workload):
    """Run an in-process workload under the speed probe, import included."""

    def run_it(args, run: Run) -> None:
        with SpeedProbe() as probe:
            start = probe.mark()
            import_package()
            end = probe.mark()
            workload(args, run, probe)
            run.import_s = probe.seconds(start, end)
        run.rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    return run_it


WORKLOADS = {
    "enumerate": workload_enumerate,
    "theorems": in_process(workload_theorems),
    "user_files": in_process(workload_user_files),
}


# -- reporting --------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """(p, value, beyond): the highest percentile with >= 10 samples above it.

    Nearest-rank percentiles from p99 down to p50; with fewer than 20
    samples no percentile qualifies and the maximum (p100) is reported.
    """
    s = sorted(samples)
    n = len(s)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, s[rank - 1], n - rank
    return 100, s[-1], 0


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    p, tail, beyond = tail_percentile(run.item_s)
    values = {
        "setup_s": run.import_s + statistics.median(run.setup_s),
        "wall_s": statistics.median(run.pass_s),
        "item_p50_ms": 1000 * statistics.median(run.item_s),
        "item_tail_ms": 1000 * tail,
        "peak_rss_mb": statistics.median(run.rss_kb) / 1024,
    }
    notes = [
        f"setup repeats={len(run.setup_s)} passes={len(run.pass_s)}",
        f"item_tail_ms is p{p} of {len(run.item_s)} item samples ({beyond} beyond it)",
        f"raw wall_s (uncorrected) median={statistics.median(run.raw_pass_s)!r}",
    ]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "comaxlat" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    run = Run()
    WORKLOADS[args.workload](args, run)
    if run.attempted == 0 or not (args.trace or run.pass_s):
        print("error: no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        values, notes, wanted = run.layers, [], spec["per_layer"]
    else:
        values, notes = end_to_end(run)
        wanted = spec["end_to_end"]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for m in wanted:
        print(f"{m['name']} = {values.get(m['name'], 0)!r} {m['unit']}")
    print(f"fail_ratio = {run.failed / run.attempted!r} ({run.failed} of {run.attempted} items)")
    for line in notes + run.problems:
        print(line)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }
    samples = {k: getattr(run, k) for k in ("setup_s", "pass_s", "raw_pass_s", "item_s", "rss_kb")}
    (OUT / f"result-{args.workload}.json").write_text(
        json.dumps(dict(result, seed=args.seed, trace=args.trace, notes=notes, samples=samples))
        + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
