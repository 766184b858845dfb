"""Command-line surface: output formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    boolean_lattice,
    chain_lattice,
    larger_lattices,
    serialize_spec_naive,
)
from comaxlat import cli, enumeration
from comaxlat.cli import main
from comaxlat.core import MAX_ELEMENTS, LatticeSpec, SizeCapExceeded, mul_key
from comaxlat.latfile import parse_lattice_file, serialize_spec
from comaxlat.presets import PRESET_NAMES, preset, preset_spec


@pytest.fixture()
def preset_file(tmp_path):
    def write(name: str) -> Path:
        path = tmp_path / f"{name}.json"
        assert main(["examples", "--name", name, "--out", str(path)]) == 0
        return path

    return write


def test_validate_ok(capsys, preset_file):
    path = preset_file("L1")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "OK L1 n=6\n"


def test_examples_roundtrip_byte_identical(capsys, preset_file, tmp_path):
    for name in PRESET_NAMES:
        path = preset_file(name)
        original = path.read_bytes()
        # validate, reload, reserialize through the API used by the CLI
        from comaxlat.core import validate_lattice
        from comaxlat.latfile import parse_lattice_file, serialize_spec

        L = validate_lattice(parse_lattice_file(original.decode()))
        assert serialize_spec(L.to_spec()).encode() == original


def test_examples_to_stdout(capsys):
    assert main(["examples", "--name", "E16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "E16"
    assert doc["mul"]["c d"] == "b"


def test_examples_unknown_name(capsys):
    assert main(["examples", "--name", "L9"]) == 2
    assert "unknown example" in capsys.readouterr().err


# sha256 of `examples --name X` stdout, frozen from the json.dumps writer
EXAMPLES_SHA256 = {
    "L1": "697f1a0cf9d5e8906d579746a193f138bdcd6fe57cb50b8802e2faf9ac427e73",
    "L2": "07ab5ad2d4f33fccb88e8f52a81c9e888bc6125be44f73de9f5de31d1bfd7273",
    "L3": "e0284e66c4db9099a2232c639f3f67efb053881bcc7fb1590f99c9ba66a0b397",
    "L4": "c301c75c07fe1be6f601af9130213f33bce4213938584bf311c2801025aa533e",
    "E16": "3d4f61c3ac234c12a3186c8186edc95a1d1a77b61667ae896b7c14c89856f988",
}


def test_examples_stdout_frozen(capsys):
    assert sorted(EXAMPLES_SHA256) == sorted(PRESET_NAMES)
    for name in PRESET_NAMES:
        assert main(["examples", "--name", name]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == EXAMPLES_SHA256[name], name


# labels the JSON escaper must quote or escape
_ODD = (
    'q"uote', "back\\slash", "\u00e9", "\u00fc", "c\x01\x1f", "t\tn\n", "\x7f",
    "\u2028", "\U0001f600",
)


def _relabeled(spec: LatticeSpec, f) -> LatticeSpec:
    return LatticeSpec(
        f(spec.name),
        tuple(map(f, spec.elements)),
        tuple((f(x), f(y)) for x, y in spec.order_pairs),
        {mul_key(f(x), f(y)): f(v) for (x, y), v in spec.mul_entries.items()},
        f(spec.bottom),
        f(spec.top),
    )


def _hand_built_specs() -> list[LatticeSpec]:
    chain = tuple(zip(("0", *_ODD), (*_ODD, "1")))
    return [
        LatticeSpec("no leq", ("0", "1"), (), {("0", "1"): "0"}),
        LatticeSpec("no mul", ("0", "a", "1"), (("0", "a"), ("a", "1")), {}),
        LatticeSpec("nothing", (), (), {}),
        LatticeSpec(
            "bounds", ("b", "a", "t"), (("b", "a"), ("a", "t")), {("a", "a"): "a"},
            bottom="b", top="t",
        ),
        LatticeSpec(
            'odd "name" \\ \u00e9\x00',
            ("0", *_ODD, "1"),
            chain,
            {mul_key(x, y): x for x, y in itertools.combinations(_ODD, 2)},
        ),
    ]


@pytest.mark.parametrize("universe", ["universe_deep", "universe7"])
def test_writer_matches_the_json_encoder(request, universe):
    lattices = [
        *request.getfixturevalue(universe),
        *map(preset, PRESET_NAMES),
        *larger_lattices(),
    ]
    specs = [L.to_spec() for L in lattices] + _hand_built_specs()
    odd = [_relabeled(s, lambda lab: f'{lab}\u00e9"\\\u00fc\x02') for s in specs]
    for spec in specs + odd:
        assert serialize_spec(spec) == serialize_spec_naive(spec), spec.name


def test_validate_bottom_equals_top(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "elements": ["0"],
                "bottom": "0",
                "top": "0",
                "leq": [],
                "mul": {},
            }
        )
    )
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "BottomEqualsTop 0\n"


def test_validate_missing_product(capsys, preset_file):
    path = preset_file("L1")
    doc = json.loads(path.read_text())
    del doc["mul"]["b c"]
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "MissingProduct b c" in capsys.readouterr().out


def test_parse_errors_exit_2(capsys, tmp_path, preset_file):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    path = preset_file("L2")
    doc = json.loads(path.read_text())
    doc["extra"] = 1
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    for name, data in (
        ("latin1.json", b"\xff\xfe{"),  # not UTF-8
        ("deep.json", b"[" * 100_000),  # nests deeper than the JSON decoder recurses
    ):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 2, name
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), name
        assert captured.out == ""
    # each malformed lattice file is rejected with its own message
    base = {
        "name": "t",
        "elements": ["0", "a", "b", "1"],
        "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
        "mul": {"a a": "a", "a b": "0", "b b": "b"},
    }
    for change, message in (
        ({"elements": ["0", "a", "a", "1"]}, "element labels must be distinct"),
        ({"elements": ["0", "a b", "1"]}, "bad element label 'a b'"),
        ({"elements": ["0", "", "1"]}, "bad element label ''"),
        ({"bottom": "z"}, "bottom label 'z' is not an element"),
        ({"leq": [["0", "z"]]}, "leq pair ['0', 'z'] uses unknown labels"),
        ({"leq": [["0"]]}, "bad leq pair ['0']"),
        ({"mul": {"a": "a"}}, "bad product key 'a' (want 'x y')"),
        ({"mul": {"a z": "a"}}, "product key 'a z' uses unknown labels"),
        ({"mul": {"a a": "z"}}, "product value 'z' is not an element"),
        ({"mul": {"a b": "0", "b a": "a"}}, "conflicting products for 'a' and 'b'"),
        ({"name": 1}, "name must be a string"),
        (None, "top-level value must be an object"),
    ):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps([] if change is None else {**base, **change}))
        assert main(["validate", str(path)]) == 2, message
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_factor_success_line(capsys, preset_file):
    path = preset_file("E16")
    assert main(["factor", str(path), "--element", "b", "--kind", "cq"]) == 0
    assert capsys.readouterr().out == "b = c * d\n"


def test_factor_none_line(capsys, preset_file):
    path = preset_file("L3")
    assert main(["factor", str(path), "--element", "a", "--kind", "cpr"]) == 0
    out = capsys.readouterr().out
    assert out == "NONE: Min(a)={b,c} not comaximal (b v c = d)\n"


def test_factor_oracle_agreement(capsys, preset_file):
    path = preset_file("E16")
    assert (
        main(["factor", str(path), "--element", "b", "--kind", "cq", "--oracle"])
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out == ["b = c * d", "oracle: [c * d]", "verdict: AGREE"]
    path3 = preset_file("L3")
    assert (
        main(["factor", str(path3), "--element", "a", "--kind", "cpr", "--oracle"])
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "oracle: []"
    assert out[2] == "verdict: AGREE"


def test_factor_bad_arguments(capsys, preset_file):
    path = preset_file("L1")
    assert main(["factor", str(path), "--element", "zz", "--kind", "cpr"]) == 2
    assert main(["factor", str(path), "--element", "a", "--kind", "xxl"]) == 2
    assert main(["factor", str(path), "--element", "1", "--kind", "cpr"]) == 2


def test_classify_output(capsys, preset_file):
    path = preset_file("L4")
    assert main(["classify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "cpr_lattice=true" in lines
    assert "cq_lattice=false" in lines
    assert "cpp_lattice=false" in lines
    assert "cq_witness=a" in lines
    assert "cpp_witness=a" in lines


def test_theorems_output_format(capsys, preset_file):
    path = preset_file("E16")
    assert main(["theorems", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lemma_comaximal hypotheses=y conclusion=pass"
    assert "lemma_cq_sufficient hypotheses=n conclusion=na" in lines
    assert lines[-1] == "overall=pass"
    assert (
        main(["theorems", str(path), "--generators", "principal"]) == 0
    )
    assert main(["theorems", str(path), "--generators", "a,b"]) == 0
    assert main(["theorems", str(path), "--generators", "a,zz"]) == 2


@pytest.mark.parametrize(
    "lattice, line",
    [
        # 2**31 subsets of proper elements, but only 202 pairwise comaximal sets
        (boolean_lattice(5), "thm_unique_lift hypotheses=y conclusion=pass"),
        # 39 primes: hypothesis (2) is decided without visiting their 2**39 subsets
        (chain_lattice(40), "thm_cpr_sufficiency hypotheses=y conclusion=pass"),
    ],
    ids=["B32", "C40"],
)
def test_theorems_on_large_lattices(capsys, tmp_path, lattice, line):
    path = tmp_path / f"{lattice.name}.json"
    path.write_text(serialize_spec(lattice.to_spec()))
    assert main(["theorems", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert lines[-1] == "overall=pass"


def test_enumerate_counts(capsys):
    assert main(["enumerate", "--size", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "size=4 lattices=7" in lines
    assert lines[-1] == "total=10"


def test_enumerate_counts_classify_nothing(capsys, monkeypatch):
    # without --predicate or --out no report is read, so none is made
    def refuse(L):
        raise AssertionError(f"classified {L.name}")

    monkeypatch.setattr(enumeration, "classify_lattice", refuse)
    monkeypatch.setattr(cli, "classify_lattice", refuse)
    assert main(["enumerate", "--size", "6"]) == 0
    assert capsys.readouterr().out == (
        "size=1 lattices=0\nsize=2 lattices=1\nsize=3 lattices=2\n"
        "size=4 lattices=7\nsize=5 lattices=26\nsize=6 lattices=129\n"
        "total=165\n"
    )
    with pytest.raises(AssertionError, match="classified"):
        main(["enumerate", "--size", "3", "--predicate", "cpr"])


def test_enumerate_predicate(capsys):
    assert main(["enumerate", "--size", "4", "--predicate", "cq_not_cpp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "predicate=cq_not_cpp matches=1" in lines


def test_enumerate_size_cap(capsys):
    assert main(["enumerate", "--size", "7"]) == 1
    assert "exceeds the cap" in capsys.readouterr().err
    assert main(["enumerate", "--size", "3", "--predicate", "bogus"]) == 2
    capsys.readouterr()
    # an unknown predicate is refused before a size over the cap
    for argv in (["--size", "7"], ["--size", "8", "--allow-size-7"]):
        assert main(["enumerate", *argv, "--predicate", "bogus"]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == "error: unknown predicate 'bogus' (atom 'bogus')\n", argv


def test_file_past_the_element_cap_is_refused(capsys, tmp_path):
    # one element past the cap, a chain order and no products: refused
    # while the elements array is read, before any table is built
    labels = ["0", *(f"e{i}" for i in range(MAX_ELEMENTS - 1)), "1"]
    doc = {
        "name": "big",
        "elements": labels,
        "leq": [list(pair) for pair in zip(labels, labels[1:])],
        "mul": {},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SizeCapExceeded):
        parse_lattice_file(path.read_text(encoding="utf-8"))
    for argv in (["validate"], ["classify"], ["theorems"]):
        assert main([*argv, str(path)]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == "error: size 257 exceeds the element cap 256\n", argv


def test_enumerate_over_the_cap_refuses_without_a_size_7_warning(capsys):
    assert main(["enumerate", "--size", "8", "--allow-size-7"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: size 8 exceeds the cap 7\n"


def test_enumerate_bad_size_or_predicate_exit_2(capsys):
    for argv in (
        ["--size", "0"],
        ["--size", "-2"],
        ["--size", "3", "--predicate", "dim>=x"],
        ["--size", "3", "--predicate", "cq&dim=?"],
    ):
        assert main(["enumerate", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert captured.out == ""
    # argparse refuses an option the CLI does not have
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--size", "3", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert main(["enumerate", "--size", "3"]) == 0
    assert capsys.readouterr().out.endswith("total=3\n")


def test_enumerate_catalog(tmp_path, capsys):
    out = tmp_path / "cat"
    assert main(["enumerate", "--size", "3", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["U2_0_0.json", "U3_0_0.json", "U3_0_1.json", "index.txt"]
    index = (out / "index.txt").read_text().splitlines()
    assert len(index) == 3
    assert index[0].startswith("U2_0_0 n=2 canon=")
    # catalog entries validate
    assert main(["validate", str(out / "U3_0_1.json")]) == 0


# Frozen output of `enumerate --size N --out DIR`: stdout, the file count,
# and the sha256 over the catalog files sorted by name, each hashed as name
# then bytes.
SIZE6_STDOUT = (
    "size=1 lattices=0\nsize=2 lattices=1\nsize=3 lattices=2\n"
    "size=4 lattices=7\nsize=5 lattices=26\nsize=6 lattices=129\ntotal=165\n"
)
FROZEN_CATALOGS = {
    6: (
        SIZE6_STDOUT,
        166,
        "b5d8f510ca3d68aeaa7ad8049acb2b25f80ef4a64bd7c428a3a157d3c8aa4f2a",
    ),
    7: (
        SIZE6_STDOUT.replace("total=165", "size=7 lattices=723\ntotal=888"),
        889,
        "66938dfb9296f8cc76a52a655a08d2a53828bfb66575bdd939f8c9c4991d3d6b",
    ),
}


def _assert_catalog_frozen(size, tmp_path, capsys):
    stdout, count, sha256 = FROZEN_CATALOGS[size]
    out = tmp_path / "cat"
    argv = ["enumerate", "--size", str(size), "--out", str(out)]
    if size == 7:
        argv.append("--allow-size-7")
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    files = sorted(out.iterdir(), key=lambda p: p.name)
    assert len(files) == count
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert h.hexdigest() == sha256


def test_enumerate_size6_catalog_frozen(tmp_path, capsys):
    _assert_catalog_frozen(6, tmp_path, capsys)


def test_enumerate_size7_catalog_frozen(request, tmp_path, capsys):
    if not request.config.getoption("--size7"):
        pytest.skip("needs --size7")
    _assert_catalog_frozen(7, tmp_path, capsys)


def test_main_calls_share_one_parser(monkeypatch, preset_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    # argparse's own __init__ names ArgumentParser, so count in place
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        path = str(preset_file("L1"))
        for argv in (["validate", path], ["classify", path], ["examples", "--name", "L2"]):
            assert main(argv) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("comaxlat") == 1


def test_a_refused_call_leaves_the_parser_as_it_was(capsys, preset_file):
    path = str(preset_file("L4"))
    assert main(["classify", path]) == 0
    before = capsys.readouterr().out
    for argv in (["enumerate"], ["bogus"], ["enumerate", "--size", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out == before


def test_console_entry_point_via_subprocess(tmp_path):
    path = tmp_path / "L1.json"
    r = subprocess.run(
        [sys.executable, "-m", "comaxlat.cli", "examples", "--name", "L1",
         "--out", str(path)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    r = subprocess.run(
        [sys.executable, "-m", "comaxlat.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert r.stdout == "OK L1 n=6\n"


def test_import_loads_no_process_pool():
    # a fresh interpreter, so no other test has loaded these modules yet
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; before = set(sys.modules); import comaxlat.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert "comaxlat.cli" in loaded
    assert not loaded & {"multiprocessing", "concurrent.futures.process", "string"}


MUTATIONS = (
    "drop_key",
    "duplicate_key",
    "drop_element",
    "duplicate_element",
    "drop_leq",
    "duplicate_leq",
    "swap_bounds",
    "unknown_product",
    "truncate",
    "number_for_string",
)


def _mutate(text: str, mutation: str, i: int) -> str:
    """One mutation of a lattice file's text; ``i`` picks where it applies."""
    if mutation == "truncate":
        return text[: i % len(text)]
    doc = json.loads(text)
    if mutation == "duplicate_key":
        key = list(doc)[i % len(doc)]
        return f"{{{json.dumps(key)}: {json.dumps(doc[key])}, {text[1:]}"
    if mutation == "drop_key":
        del doc[list(doc)[i % len(doc)]]
    elif mutation in ("drop_element", "duplicate_element", "drop_leq", "duplicate_leq"):
        items = doc["elements" if mutation.endswith("element") else "leq"]
        j = i % len(items)
        if mutation.startswith("drop"):
            del items[j]
        else:
            items.insert(j, items[j])
    elif mutation == "swap_bounds":
        doc["bottom"], doc["top"] = doc.get("top", "1"), doc.get("bottom", "0")
    elif mutation == "unknown_product":
        doc["mul"][sorted(doc["mul"])[i % len(doc["mul"])]] = "unknown"
    else:  # number_for_string: any string value, by position
        slots = [(doc, "name")]
        slots += [(doc["elements"], j) for j in range(len(doc["elements"]))]
        slots += [(pair, j) for pair in doc["leq"] for j in (0, 1)]
        slots += [(doc["mul"], key) for key in doc["mul"]]
        box, key = slots[i % len(slots)]
        box[key] = i
    return json.dumps(doc)


def test_mutated_preset_files_never_raise(tmp_path):
    path = tmp_path / "mutant.json"
    commands = (
        ["validate", str(path)],
        ["classify", str(path)],
        ["factor", str(path), "--element", "a", "--kind", "cpr"],
        ["theorems", str(path)],
    )
    codes = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(
        st.sampled_from(PRESET_NAMES),
        st.sampled_from(MUTATIONS),
        st.integers(min_value=0, max_value=10**6),
    )
    def run(name, mutation, i):
        path.write_text(_mutate(serialize_spec(preset_spec(name)), mutation, i))
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(argv)
            assert code in (0, 1, 2), (argv, out.getvalue())
            codes.add(code)

    run()
    # the mutants reach every exit code: some stay valid lattices, some fail
    # validation and some fail to parse
    assert codes == {0, 1, 2}
