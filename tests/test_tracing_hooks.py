"""The benchmark's tracer wraps package attributes by name; they must exist."""

import importlib.util
from pathlib import Path

import comaxlat.cli as cli
import comaxlat.factorize as factorize

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (cli.main, factorize.factor)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert (cli.main, factorize.factor) != originals
    finally:
        tracer.uninstall()
    assert (cli.main, factorize.factor) == originals
