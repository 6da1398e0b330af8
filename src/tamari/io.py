"""Serialization: poset documents (JSON), verification reports, DOT export.

All output here is byte-deterministic for identical inputs: elements are
emitted in index order, covers sorted, fibers by ascending level, and JSON
is dumped with a fixed key order and no NaN/Infinity escapes (vectors are
always serialized in their text form).
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Mapping, Sequence

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
    """The bytes of ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``.

    On Python 3.10-3.12 ``json.dumps`` runs its pure-Python encoder whenever
    ``indent`` is set.  Here the containers are laid out in Python, but a
    run of str or int leaves (the element texts, the ``[u, v]`` cover pairs,
    the levels) is written by one %-format at C speed, after one C-level
    escape of each str (``encode_basestring_ascii``); any other leaf goes
    through ``json.dumps``, so a NaN still raises ValueError.
    """
    return _encode(doc, "\n") + "\n"


def _encode(value, margin: str) -> str:
    """The JSON text of ``value`` laid out as ``json.dumps(indent=2)`` does,
    where ``margin`` is the newline and indent of the line it starts on."""
    inner = margin + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        run = _run(value, inner)
        if run is None:
            body = sep.join([_encode(item, inner) for item in value])
        else:
            spec, _, args = run
            body = sep.join([spec] * len(value)) % tuple(args)
        return "[" + inner + body + margin + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = map(_key_text, value)
        run = _run(list(value.values()), inner)
        if run is None:
            body = sep.join(map("{}: {}".format, keys, [_encode(v, inner) for v in value.values()]))
        else:
            spec, arity, args = run
            body = sep.join(["%s: " + spec] * len(value)) % tuple(
                chain.from_iterable(zip(keys, *[iter(args)] * arity)))
        return "{" + inner + body + margin + "}"
    return json.dumps(value, allow_nan=False)


def _run(items: Sequence, margin: str) -> tuple[str, int, Iterable] | None:
    """How to write ``items`` at ``margin`` by one %-format, when they are
    all str, all int, or equally long nonempty lists whose items form such a
    run in turn: each item's spec, how many arguments it takes, and all the
    arguments in order.  None for any other items."""
    kinds = set(map(type, items))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    if kind is str:
        return "%s", 1, map(_encode_str, items)
    if kind is int:  # not bool, which "%d" would write as a number
        return "%d", 1, items
    if kind not in (list, tuple):
        return None
    widths = set(map(len, items))
    if len(widths) != 1 or widths == {0}:
        return None
    (width,) = widths
    inner = margin + "  "
    cells = _run(list(chain.from_iterable(items)), inner)
    if cells is None:
        return None
    spec, arity, args = cells
    return "[" + inner + ("," + inner).join([spec] * width) + margin + "]", width * arity, args


def _key_text(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str escaped, an int, float,
    bool or None by its JSON text, quoted; any other key is refused."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:
        return _encode_str(json.dumps(key, allow_nan=False))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


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
        text = _label_text(lab).replace('"', '\\"')
        lines.append(f'  n{i} [label="{text}"];')
    for u, v in p.covers:
        lines.append(f"  n{u} -> n{v};")
    if levels is not None:
        for _, members in levels.fibers().items():
            group = " ".join(f"n{i};" for i in members)
            lines.append(f"  {{ rank=same; {group} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
