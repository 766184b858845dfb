"""Spans and counts at the package's layer boundaries.

The benchmark installs wrappers on module and class attributes of
``comaxlat``; the package itself is never edited.  A wrapper records a
span (name, start, end, parent) and bumps ``<name>.calls`` on every
call, so nesting follows the real call tree.  Self time of a span is
its duration minus the durations of its direct child spans, so the
``.s`` metrics of all layers add up without double counting.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import comaxlat.cli as cli
import comaxlat.core as core
import comaxlat.enumeration as enumeration
import comaxlat.factorize as factorize
import comaxlat.latfile as latfile
import comaxlat.theorems as theorems

# span name -> metric prefix, where the two differ
_METRIC_PREFIX = {"enumeration.enumerated_universe": "enumeration.search_self"}


class Tracer:
    """Records spans and counts; installs and removes the layer wrappers."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._open
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(rec)
        stack.append(len(spans) - 1)
        self.counts[name + ".calls"] += 1
        rec[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = self.clock()
            stack.pop()

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """A function that behaves like ``fn`` and records every call.

        ``on_result(result)`` and ``on_error(exc)`` return counter
        suffixes to bump (``name + "." + suffix``).
        """

        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, fn, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    for suffix in on_error(exc):
                        self.counts[f"{name}.{suffix}"] += 1
                raise
            if on_result is not None:
                for suffix in on_result(result):
                    self.counts[f"{name}.{suffix}"] += 1
            return result

        return wrapper

    # -- installing -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""

        def once(name, fn, owners, **hooks):
            w = self.wrap(name, fn, **hooks)
            for owner, attr in owners:
                self.patch(owner, attr, w)

        once(
            "latfile.parse_lattice_file",
            latfile.parse_lattice_file,
            [(latfile, "parse_lattice_file")],
        )
        once("latfile.serialize_spec", latfile.serialize_spec, [(cli, "serialize_spec")])
        once("core.validate_lattice", core.validate_lattice, [(latfile, "validate_lattice")])
        once(
            "core.multiplication_violations",
            core.multiplication_violations,
            [(core, "multiplication_violations"), (enumeration, "multiplication_violations")],
            on_result=lambda viols: ["rejected." + v.code for v in viols],
        )
        from_tables = core.FiniteMultLattice.__dict__["from_tables"].__func__
        self.patch(
            core.FiniteMultLattice,
            "from_tables",
            classmethod(self.wrap("core.from_tables", from_tables)),
        )
        once(
            "core.lattice_profile",
            core.FiniteMultLattice.lattice_profile,
            [(core.FiniteMultLattice, "lattice_profile")],
        )
        once(
            "enumeration.enumerated_universe",
            enumeration.enumerated_universe,
            [(cli, "enumerated_universe"), (enumeration, "enumerated_universe")],
        )
        once(
            "enumeration.bounded_lattices",
            enumeration.enumerate_bounded_lattices,
            [(enumeration, "enumerate_bounded_lattices")],
            on_result=lambda orders: ["orders"] * len(orders),
        )
        once(
            "enumeration.order_automorphisms",
            enumeration.order_automorphisms,
            [(enumeration, "order_automorphisms")],
        )
        once("enumeration.canonical_form", enumeration.canonical_form, [(cli, "canonical_form")])
        once(
            "factorize.factor",
            factorize.factor,
            [(factorize, "factor"), (theorems, "factor")],
            on_error=lambda exc: (
                ["no_factorization"] if isinstance(exc, factorize.NoFactorization) else []
            ),
        )
        once(
            "factorize.classify_lattice",
            factorize.classify_lattice,
            [(cli, "classify_lattice"), (theorems, "classify_lattice")],
        )
        self.patch(cli, "run_theorem_suite", self.theorem_suite)
        once("cli.main", cli.main, [(cli, "main")])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the theorem suite, one checker per span -------------------------------

    def theorem_suite(self, L, G="all") -> theorems.TheoremReport:
        """``run_theorem_suite`` evaluated one checker at a time.

        Each checker runs through the public ``check_entry``, so its span
        holds only its own work plus the shared context it recomputes;
        factorization, classification and profile calls show up as
        child spans.
        """

        def suite():
            entries = []
            for tid in theorems.THEOREM_IDS:
                e = self.call("theorems." + tid, theorems.check_entry, L, tid, G)
                self.counts[f"theorems.{tid}.{verdict(e)}"] += 1
                entries.append(e)
            return theorems.TheoremReport(lattice_name=L.name, entries=tuple(entries))

        return self.call("theorems.run_theorem_suite", suite)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), c in zip(spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def metrics(self) -> dict[str, float]:
        """Self seconds as ``<prefix>.s`` plus every count, by metric name."""
        out = {_metric_name(name) + ".s": s for name, s in self.self_times().items()}
        out.update((_metric_name(key), n) for key, n in self.counts.items())
        return out

    def dump(self, path: Path, **meta) -> None:
        doc = dict(meta, counts=dict(sorted(self.counts.items())), spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _metric_name(key: str) -> str:
    for span, prefix in _METRIC_PREFIX.items():
        if key == span or key.startswith(span + "."):
            return prefix + key[len(span):]
    return key


def verdict(entry: theorems.TheoremEntry) -> str:
    if entry.conclusion_holds is None:
        return "na"
    return "pass" if entry.conclusion_holds else "fail"
