"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced runs take about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from comaxlat import enumerated_universe, run_theorem_suite  # noqa: E402
import comaxlat.cli as cli  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    results = []
    for _ in range(2):
        proc = bench(tmp_path, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in results
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert set(results[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / ".bench_out" / f"trace-{workload}.json").is_file()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "theorems", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_enumerate_check_fails_on_perturbed_reference():
    ref = run.load_reference()["enumerate"]
    stdout, digest = ref["stdout"], ref["catalog_sha256"]
    assert run.enumerate_problem(stdout, 0, digest, ref) is None
    assert run.enumerate_problem(stdout, 1, digest, ref) is not None
    bad_stdout = dict(ref, stdout=stdout.replace("total=888", "total=889"))
    assert run.enumerate_problem(stdout, 0, digest, bad_stdout) is not None
    bad_digest = dict(ref, catalog_sha256="0" + digest[1:])
    assert run.enumerate_problem(stdout, 0, digest, bad_digest) is not None


def test_theorem_check_fails_on_perturbed_reference():
    ref = run.load_reference()["theorems"]
    reports = [run_theorem_suite(L) for L in enumerated_universe(4)]
    assert all(run.theorem_problem(r, ref) is None for r in reports)
    name = reports[-1].lattice_name
    codes = ref["verdicts"][name]
    flipped = ("n" if codes[0] == "p" else "p") + codes[1:]
    bad = {"verdicts": dict(ref["verdicts"], **{name: flipped})}
    assert run.theorem_problem(reports[-1], bad) is not None


def test_user_file_checks_fail_on_perturbed_expectation(tmp_path):
    files = run.user_files_setup(3, tmp_path)
    for path, want in files[:6]:
        classified = run.capture(cli.main, ["classify", str(path)])
        checked = run.capture(cli.main, ["theorems", str(path)])
        assert run.user_file_problem(classified, checked, want) is None
        for key in ("treed", "dimension", "cpr_lattice", "cq_lattice", "cpp_lattice", "domain"):
            flipped = {"true": "false", "false": "true"}.get(want[key], want[key] + "0")
            bad = dict(want, **{key: flipped})
            assert run.user_file_problem(classified, checked, bad) is not None
        failing = (checked[0], checked[1].replace("overall=pass", "overall=fail"))
        assert run.user_file_problem(classified, failing, want) is not None
        assert run.user_file_problem((2, classified[1]), checked, want) is not None
