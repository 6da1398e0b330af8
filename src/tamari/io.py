"""Serialization: poset documents (JSON), verification reports, DOT export.

All output here is byte-deterministic for identical inputs: elements are
emitted in index order, covers sorted, fibers by ascending level, and JSON
is dumped with a fixed key order and no NaN/Infinity escapes (vectors are
always serialized in their text form).  A poset document is written with
the bytes of ``json.dumps(doc, indent=2)`` field by field: its scalars, a
list of str (``elements``), a list of ``[int, int]`` (``covers``) and an
object of str to int (``levels``); any other document goes whole to
``json.dumps``.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Mapping

from .elements import element_listing, format_vector
from .lattices import POSET_MAX_N, family_name, family_size, tamari_poset
from .poset import LevelAssignment, Poset

FORMAT_VERSION = 1

_KINDS = ("tamari_a", "tamari_b", "generic")

# json's own string escape, in C where the interpreter has it
_encode_str = json.encoder.encode_basestring_ascii

# kind -> type letter of the Tamari families
_FAMILIES = {"tamari_a": "a", "tamari_b": "b"}


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return format_vector(label)
    return str(label)


def elements_document(labels, kind: str = "generic", n: int | None = None) -> dict:
    """A poset document carrying only the element list (no covers).

    A Tamari kind names its family by ``n``, which defaults to the number of
    entries of the first element, a vector or its text.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if n is None and kind in _FAMILIES and labels:
        n = _label_text(labels[0]).count(",") + 1
    doc: dict = {"format_version": FORMAT_VERSION, "kind": kind}
    if n is not None:
        doc["n"] = n
    doc["elements"] = [_label_text(lab) for lab in labels]
    return doc


def poset_document(
    p: Poset,
    kind: str = "generic",
    n: int | None = None,
    levels: LevelAssignment | None = None,
) -> dict:
    """Build the JSON-ready mapping describing a poset and its covers.

    ``levels`` is included only when a level assignment is supplied.
    """
    doc = elements_document(p.labels, kind=kind, n=n)
    doc["covers"] = [[u, v] for u, v in p.covers]
    if levels is not None:
        doc["levels"] = {str(i): lv for i, lv in enumerate(levels.levels)}
    return doc


def document_to_poset(doc: Mapping) -> Poset:
    """Rebuild a poset from a document; inverse of :func:`poset_document`.

    The element ordering is preserved exactly, so a rebuilt Tamari document
    is not merely isomorphic to the original but has the identical order.
    Documents without covers cannot reconstruct an order and are rejected,
    as is a field of the wrong JSON type or value (a ``format_version``
    other than the int 1, a ``kind`` not in ``_KINDS``, an ``n`` that is
    present but not a positive int), with a ValueError naming it.  A Tamari
    document must give ``n`` within the poset cap, list exactly the texts of
    its family's elements in enumeration order, and carry covers whose
    closure is its family's order.  Its covers are compared with that order
    (:meth:`Poset.closure_mismatch`), never closed; a generic document's are
    closed by :meth:`Poset.from_covers`.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"document is not a JSON object but {type(doc).__name__}")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    if "covers" not in doc:
        raise ValueError("document has no covers; cannot rebuild the order")
    labels = doc.get("elements")
    if not (isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)):
        raise ValueError("document field 'elements' is not a list of strings")
    if not isinstance(doc["covers"], list):
        raise ValueError("document field 'covers' is not a list")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"document field 'kind' is {kind!r}, not one of {_KINDS}")
    if "n" in doc and (type(doc["n"]) is not int or doc["n"] < 1):
        raise ValueError(f"document field 'n' is {doc['n']!r}, not a positive integer")
    seen: set[str] = set()
    for lab in labels:
        if lab in seen:
            raise ValueError(f"duplicate element label {lab!r}")
        seen.add(lab)
    family = _family_poset(kind, doc.get("n"), labels)
    if family is None:
        p = Poset.from_covers(labels, doc["covers"])
    else:
        name, order = family
        stray, missing = order.closure_mismatch(doc["covers"])
        if stray or missing:
            u, v = stray or missing
            wrong = "has {} < {}, not a cover of {}" if stray else "misses the cover {} < {} of {}"
            raise ValueError("document field 'covers' " + wrong.format(labels[u], labels[v], name))
        p = order.relabeled(labels)
    levels = doc.get("levels")
    if levels is not None:
        if not isinstance(levels, Mapping):
            raise ValueError("document field 'levels' is not an object")
        fibers: dict[int, list[int]] = {}
        # a key is the exact text poset_document writes, so no two keys
        # ("1", "01", " 1", "+1") can name one element
        index = {str(i): i for i in range(len(labels))}
        for key, lv in levels.items():
            i = index.get(key)
            if i is None:
                raise ValueError(f"level key {key!r} is not an element index 0..{len(labels) - 1}")
            if not isinstance(lv, int) or isinstance(lv, bool):
                raise ValueError(f"level {lv!r} of key {key!r} is not an integer")
            fibers.setdefault(lv, []).append(i)
        bad = p.first_comparable_in_parts(fibers.values())
        if bad is not None:
            raise ValueError(
                f"level fiber is not an antichain: {labels[bad[0]]!r} <= {labels[bad[1]]!r}"
            )
    return p


def _family_poset(kind: str, n: int | None, labels: list[str]) -> tuple[str, Poset] | None:
    """The name and order (:func:`tamari_poset`) of a Tamari document's
    family, after checking ``n`` against the poset cap and the element count,
    so a document too large costs nothing, then that ``labels`` are exactly
    the family's element texts; None for a generic document."""
    if kind not in _FAMILIES:
        return None
    letter = _FAMILIES[kind]
    if n is None:
        raise ValueError(f"document field 'n' is missing; kind {kind!r} needs it")
    if n > POSET_MAX_N:
        raise ValueError(f"document field 'n' is {n}, beyond the poset cap {POSET_MAX_N}")
    name, size = family_name(letter, n), family_size(letter, n)
    if len(labels) != size:
        raise ValueError(
            f"document field 'elements' has {len(labels)} entries, but {name} has {size} elements"
        )
    texts = element_listing(letter, n).splitlines()
    if labels != texts:
        i = next(i for i, (lab, text) in enumerate(zip(labels, texts)) if lab != text)
        raise ValueError(
            f"document field 'elements' has {labels[i]!r} at index {i}, where "
            f"{name} has {texts[i]!r}"
        )
    return name, tamari_poset(letter, n)


def dumps_document(doc: Mapping) -> str:
    """The bytes of ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``,
    without the pure-Python encoder that Python 3.10-3.12 run whenever
    ``indent`` is set, for a document whose fields :func:`_field_text` can
    write; any other document goes whole to ``json.dumps``."""
    if isinstance(doc, dict) and doc:
        fields = []
        for key, value in doc.items():
            text = _field_text(value) if type(key) is str else None
            if text is None:
                break
            fields.append(_encode_str(key) + ": " + text)
        else:
            return "{\n  " + ",\n  ".join(fields) + "\n}\n"
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# a [u, v] cover pair at indent 4
_PAIR = "[\n      %d,\n      %d\n    ]"


def _field_text(value) -> str | None:
    """A field's value laid out at indent 2: a scalar or an empty list or
    object by ``json.dumps``, so a NaN raises ValueError; the element texts,
    the cover pairs or the levels by one join or %-format, each str escaped
    by ``encode_basestring_ascii``; None for any other value."""
    if not isinstance(value, (list, tuple, dict)) or not value:
        return json.dumps(value, allow_nan=False)
    if type(value) is list:
        kinds = set(map(type, value))
        if kinds == {str}:
            return "[\n    " + ",\n    ".join(map(_encode_str, value)) + "\n  ]"
        if (kinds == {list} and set(map(len, value)) == {2}
                and set(map(type, chain.from_iterable(value))) == {int}):
            pairs = ",\n    ".join([_PAIR] * len(value)) % tuple(chain.from_iterable(value))
            return "[\n    " + pairs + "\n  ]"
    elif (type(value) is dict and set(map(type, value)) == {str}
            and set(map(type, value.values())) == {int}):
        keyed = chain.from_iterable(zip(map(_encode_str, value), value.values()))
        return "{\n    " + ",\n    ".join(["%s: %d"] * len(value)) % tuple(keyed) + "\n  }"
    return None


def report_document(report) -> dict:
    """ReportDocument mapping for a VerificationReport (fixed field names)."""
    doc: dict = {"claim": report.claim, "n": report.n, "status": report.status}
    if report.witness is not None:
        doc["witness"] = report.witness
    if report.data is not None:
        doc["data"] = report.data
    return doc


def dumps_report(report) -> str:
    """One JSON line; the witness and data hold only str, int, bool, None,
    lists, tuples and dicts keyed by str or int, and an ``inf`` raises
    ValueError."""
    return json.dumps(report_document(report), allow_nan=False) + "\n"


def poset_to_dot(
    p: Poset,
    name: str = "poset",
    levels: LevelAssignment | None = None,
) -> str:
    """Graphviz DOT text: one node per element, one edge per cover.

    Edges point from the lower element to the upper one with ``rankdir=BT``,
    so renderers draw the diagram bottom-up; equal-level elements are pinned
    to the same rank when a level assignment is given.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    for i, lab in enumerate(p.labels):
        text = _label_text(lab).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{text}"];')
    for u, v in p.covers:
        lines.append(f"  n{u} -> n{v};")
    if levels is not None:
        for _, members in levels.fibers().items():
            group = " ".join(f"n{i};" for i in members)
            lines.append(f"  {{ rank=same; {group} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
