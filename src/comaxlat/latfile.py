"""Reading and writing lattice description files.

A lattice file is a UTF-8 JSON document with keys ``name``,
``elements``, ``leq`` and ``mul`` plus optional ``bottom``/``top``
(defaulting to the labels ``"0"`` and ``"1"``, which must then be
elements).  ``leq`` lists pairs ``[x, y]`` meaning ``x <= y``; any
relation whose closure is intended is accepted, covers suffice.
``mul`` maps ``"x y"`` (two labels joined by one space, order
insensitive) to a product label; pairs involving the bottom or top may
be omitted.  A file lists at most ``MAX_ELEMENTS`` elements; a longer
``elements`` array raises ``SizeCapExceeded`` before ``leq`` and
``mul`` are read.

Serialization is canonical: fixed key order, covering pairs and product
keys sorted by element index, two-space indentation, trailing newline —
so parse/serialize round-trips are byte-identical.  The text is that of
``json.dumps(doc, indent=2)`` plus a newline, written directly: one
item per line, ``[]`` and ``{}`` for an empty array or object, and
every string quoted by the escaper ``json.dumps`` uses (non-ASCII as
``\\u`` escapes).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Union

from .core import (
    FiniteMultLattice,
    LatticeError,
    LatticeSpec,
    _check_elements,
    mul_key,
    validate_lattice,
)

__all__ = ["ParseError", "parse_lattice_file", "serialize_spec", "load_lattice"]

_REQUIRED_KEYS = {"name", "elements", "leq", "mul"}
_OPTIONAL_KEYS = {"bottom", "top"}


class ParseError(LatticeError):
    """The document is not a well-formed lattice file."""


def _reject_duplicate_keys(pairs):
    d = {}
    for k, v in pairs:
        if k in d:
            raise ParseError(f"duplicate key {k!r}")
        d[k] = v
    return d


def parse_lattice_file(text: str) -> LatticeSpec:
    """Parse a lattice file into a spec, rejecting malformed documents."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    keys = set(doc)
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")

    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise ParseError("elements must be an array of strings")
    _check_elements(len(elements))  # before any table is read
    for e in elements:
        if e.split() != [e]:  # empty, or holding whitespace
            raise ParseError(f"bad element label {e!r}")
    if len(set(elements)) != len(elements):
        raise ParseError("element labels must be distinct")
    known = set(elements)

    bottom = doc.get("bottom", "0")
    top = doc.get("top", "1")
    for lab, key in ((bottom, "bottom"), (top, "top")):
        if not isinstance(lab, str) or lab not in known:
            raise ParseError(f"{key} label {lab!r} is not an element")

    raw_leq = doc["leq"]
    if not isinstance(raw_leq, list):
        raise ParseError("leq must be an array of pairs")
    pairs = []
    for item in raw_leq:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"bad leq pair {item!r}")
        x, y = item
        if not isinstance(x, str) or not isinstance(y, str):
            raise ParseError(f"bad leq pair {item!r}")
        if x not in known or y not in known:
            raise ParseError(f"leq pair {item!r} uses unknown labels")
        pairs.append((x, y))

    raw_mul = doc["mul"]
    if not isinstance(raw_mul, dict):
        raise ParseError("mul must be an object")
    entries: dict[tuple[str, str], str] = {}
    for key, value in raw_mul.items():
        parts = key.split(" ")
        if len(parts) != 2:
            raise ParseError(f"bad product key {key!r} (want 'x y')")
        x, y = parts
        if x not in known or y not in known:
            raise ParseError(f"product key {key!r} uses unknown labels")
        if not isinstance(value, str) or value not in known:
            raise ParseError(f"product value {value!r} is not an element")
        norm = mul_key(x, y)
        if entries.setdefault(norm, value) != value:
            raise ParseError(
                f"conflicting products for {norm[0]!r} and {norm[1]!r}"
            )

    return LatticeSpec(
        name=name,
        elements=tuple(elements),
        order_pairs=tuple(pairs),
        mul_entries=entries,
        bottom=bottom,
        top=top,
    )


def _block(open_: str, close: str, items: list[str], indent: str) -> str:
    """A JSON array or object at ``indent``, laid out as ``json.dumps(indent=2)``."""
    if not items:
        return open_ + close
    sep = ",\n" + indent + "  "
    return f"{open_}\n{indent}  {sep.join(items)}\n{indent}{close}"


def serialize_spec(spec: LatticeSpec) -> str:
    """Canonical lattice-file text for a spec."""
    index = {lab: i for i, lab in enumerate(spec.elements)}
    fields = [
        f'"name": {_quote(spec.name)}',
        '"elements": ' + _block("[", "]", [_quote(e) for e in spec.elements], "  "),
    ]
    if spec.bottom != "0":
        fields.append(f'"bottom": {_quote(spec.bottom)}')
    if spec.top != "1":
        fields.append(f'"top": {_quote(spec.top)}')
    leq = [
        _block("[", "]", [_quote(x), _quote(y)], "    ")
        for x, y in sorted(spec.order_pairs, key=lambda p: (index[p[0]], index[p[1]]))
    ]
    fields.append('"leq": ' + _block("[", "]", leq, "  "))
    mul = {
        f"{x} {y}": spec.mul_entries[(x, y)]
        for x, y in sorted(spec.mul_entries, key=lambda k: (index[k[0]], index[k[1]]))
    }
    products = [f"{_quote(k)}: {_quote(v)}" for k, v in mul.items()]
    fields.append('"mul": ' + _block("{", "}", products, "  "))
    return _block("{", "}", fields, "") + "\n"


def load_lattice(path: Union[str, Path]) -> FiniteMultLattice:
    """Parse and validate a lattice file from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a UTF-8 file: {exc}") from None
    return validate_lattice(parse_lattice_file(text))
