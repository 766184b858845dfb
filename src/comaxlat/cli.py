"""Command-line interface.

Subcommands: validate, classify, factor, theorems, enumerate, examples.
Exit codes: 0 success, 1 validation failure (or size cap exceeded),
2 parse/I-O errors, unknown elements/kinds/names and bad arguments.
All output is deterministic: stable key order, elements ordered by
index, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

from .core import InvalidSpec, ValidationError
from .enumeration import (
    DEFAULT_SIZE_CAP,
    HARD_SIZE_CAP,
    SizeCapExceeded,
    UnknownPredicate,
    canonical_form,
    enumerated_universe,
    search,
)
from .factorize import (
    FactorKind,
    NoFactorization,
    TopElement,
    classify_lattice,
    factor,
    oracle_factorizations,
)
from .latfile import ParseError, load_lattice, serialize_spec
from .presets import PRESET_NAMES, preset_spec
from .theorems import run_theorem_suite

__all__ = ["main"]


def _bool(b: bool) -> str:
    return "true" if b else "false"


def cmd_validate(args) -> int:
    L = load_lattice(args.path)
    print(f"OK {L.name} n={L.n}")
    return 0


def cmd_classify(args) -> int:
    L = load_lattice(args.path)
    r = classify_lattice(L)
    print(f"name={r.name}")
    print(f"n={r.n}")
    print(f"domain={_bool(r.is_domain)}")
    print(f"treed={_bool(r.is_treed)}")
    print(f"dimension={r.dimension}")
    print(f"cpr_lattice={_bool(r.is_cpr_lattice)}")
    if r.cpr_witness is not None:
        print(f"cpr_witness={r.cpr_witness}")
    print(f"cq_lattice={_bool(r.is_cq_lattice)}")
    if r.cq_witness is not None:
        print(f"cq_witness={r.cq_witness}")
    print(f"cpp_lattice={_bool(r.is_cpp_lattice)}")
    if r.cpp_witness is not None:
        print(f"cpp_witness={r.cpp_witness}")
    print(f"dedekind={_bool(r.is_dedekind)}")
    if r.dedekind_witness is not None:
        print(f"dedekind_witness={r.dedekind_witness}")
    return 0


def cmd_factor(args) -> int:
    L = load_lattice(args.path)
    try:
        a = L.index(args.element)
    except KeyError:
        print(f"error: unknown element {args.element!r}", file=sys.stderr)
        return 2
    try:
        kind = FactorKind(args.kind)
    except ValueError:
        print(f"error: unknown kind {args.kind!r}", file=sys.stderr)
        return 2
    if a == L.top:
        print("error: the top element admits no factorization", file=sys.stderr)
        return 2
    try:
        f = factor(L, a, kind)
        got = set(f.factors)
        print(f"{L.label(a)} = {' * '.join(L.label(x) for x in f.factors)}")
    except NoFactorization as exc:
        got = None
        print(f"NONE: {exc}")
    if args.oracle:
        found = oracle_factorizations(L, a, kind)
        shown = "; ".join(
            " * ".join(L.label(x) for x in f.factors) for f in found
        )
        print(f"oracle: [{shown}]")
        agree = (
            (got is None and not found)
            or (got is not None and len(found) == 1 and set(found[0].factors) == got)
        )
        print(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
    return 0


def cmd_theorems(args) -> int:
    L = load_lattice(args.path)
    sel = args.generators
    if sel in ("all", "principal"):
        G = sel
    else:
        try:
            G = tuple(L.index(lab) for lab in sel.split(","))
        except KeyError:
            print(f"error: unknown generator label in {sel!r}", file=sys.stderr)
            return 2
    report = run_theorem_suite(L, G)
    for e in report.entries:
        concl = (
            "na"
            if e.conclusion_holds is None
            else "pass" if e.conclusion_holds else "fail"
        )
        print(
            f"{e.theorem_id} hypotheses={'y' if e.hypotheses_hold else 'n'} "
            f"conclusion={concl}"
        )
    print(f"overall={'pass' if report.overall_pass else 'fail'}")
    return 0


def cmd_enumerate(args) -> int:
    if args.size < 1:
        print(f"error: size must be at least 1, got {args.size}", file=sys.stderr)
        return 2
    if args.size_cap == HARD_SIZE_CAP and args.size == 7:
        print("warning: size-7 enumeration may take a while", file=sys.stderr)
    if args.predicate or args.out:
        selected = search(args.size, args.predicate or None, size_cap=args.size_cap)
        lattices = [L for L, _ in selected]
    else:  # only the counts are printed, so no lattice is classified
        lattices = enumerated_universe(args.size, size_cap=args.size_cap)
    per_size = Counter(L.n for L in lattices)
    for n in range(1, args.size + 1):
        print(f"size={n} lattices={per_size[n]}")
    if args.predicate:
        print(f"predicate={args.predicate} matches={len(lattices)}")
    print(f"total={len(lattices)}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        index_lines = []
        for L, rep in selected:
            (outdir / f"{L.name}.json").write_text(
                serialize_spec(L.to_spec()), encoding="utf-8"
            )
            index_lines.append(
                f"{L.name} n={L.n} canon={canonical_form(L).hex()}"
                f" domain={_bool(rep.is_domain)} treed={_bool(rep.is_treed)}"
                f" dim={rep.dimension}"
                f" cpr={_bool(rep.is_cpr_lattice)} cq={_bool(rep.is_cq_lattice)}"
                f" cpp={_bool(rep.is_cpp_lattice)} dedekind={_bool(rep.is_dedekind)}"
            )
        (outdir / "index.txt").write_text(
            "".join(line + "\n" for line in index_lines), encoding="utf-8"
        )
    return 0


def cmd_examples(args) -> int:
    if args.name not in PRESET_NAMES:
        print(f"error: unknown example {args.name!r}", file=sys.stderr)
        return 2
    text = serialize_spec(preset_spec(args.name))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


@functools.cache  # parse_args leaves the parser as it was, so calls share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comaxlat",
        description="Finite multiplicative lattices: validation, classification, "
        "comaximal factorization, theorem suites and enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a lattice file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify a lattice file")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("factor", help="factor one element comaximally")
    p.add_argument("path")
    p.add_argument("--element", required=True)
    p.add_argument("--kind", required=True, help="cpr, cq or cpp")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force scan and compare",
    )
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("theorems", help="run the theorem suite on a lattice file")
    p.add_argument("path")
    p.add_argument(
        "--generators",
        default="all",
        help="all, principal, or a comma-separated list of labels",
    )
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("enumerate", help="enumerate small multiplicative lattices")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--predicate", default=None)
    p.add_argument("--out", default=None, help="catalog output directory")
    p.add_argument(
        "--allow-size-7",
        dest="size_cap",
        action="store_const",
        const=HARD_SIZE_CAP,
        default=DEFAULT_SIZE_CAP,
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("examples", help="write a built-in example lattice file")
    p.add_argument("--name", required=True, help="|".join(PRESET_NAMES))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        for v in exc.violations:
            print(str(v))
        return 1
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, InvalidSpec, UnknownPredicate, TopElement, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
