"""Malformed poset documents: cover pairs, level values and element labels."""

import json

import numpy as np
import pytest

from tamari import Poset, PosetError, enumerate_type_b, format_vector, tamari_poset
from tamari.io import _KINDS, document_to_poset, poset_document


def _doc(**fields) -> dict:
    doc = {"format_version": 1, "kind": "generic", "elements": ["a", "b"], "covers": [[0, 1]]}
    doc.update(fields)
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("pair", [[True, 1], [0, 1.0], ["0", "1"], [0]])
def test_cover_that_is_not_two_indices_is_rejected(pair):
    with pytest.raises(PosetError) as err:
        document_to_poset(_doc(covers=[pair]))
    assert repr(pair) in str(err.value)


def test_numpy_integer_covers_are_accepted():
    p = Poset.from_covers(list("abc"), np.array([[0, 1], [1, 2]]))
    assert p.covers == [(0, 1), (1, 2)]


@pytest.mark.parametrize("level", [0.5, "3", True, None])
def test_level_that_is_not_an_integer_is_rejected(level):
    with pytest.raises(ValueError) as err:
        document_to_poset(_doc(levels={"0": 0, "1": level}))
    assert str(err.value) == f"level {level!r} of key '1' is not an integer"


def test_duplicate_element_label_is_rejected():
    with pytest.raises(ValueError) as err:
        document_to_poset(_doc(elements=["a", "b", "a"], covers=[[0, 1]]))
    assert str(err.value) == "duplicate element label 'a'"


def test_duplicate_label_named_is_the_first_repeat():
    with pytest.raises(ValueError) as err:
        document_to_poset(_doc(elements=["a", "b", "b", "a"], covers=[]))
    assert str(err.value) == "duplicate element label 'b'"


def test_duplicate_label_in_a_t10b_sized_listing_is_found():
    labels = [format_vector(v) for v in enumerate_type_b(10)]
    dup = labels[-2]
    labels.append(dup)
    with pytest.raises(ValueError) as err:
        document_to_poset(_doc(elements=labels, covers=[]))
    assert str(err.value) == f"duplicate element label {dup!r}"


def test_tamari_document_with_levels_still_reads_back():
    p = tamari_poset("b", 3)
    doc = json.loads(json.dumps(poset_document(p, levels=p.level_map("highest"))))
    q = document_to_poset(doc)
    assert q.labels == doc["elements"]
    assert q.covers == p.covers


@pytest.mark.parametrize("doc, message", [
    ([{"format_version": 1}], "document is not a JSON object but list"),
    (_doc(elements="abc"), "document field 'elements' is not a list of strings"),
    (_doc(elements={"x": 1, "y": 2}), "document field 'elements' is not a list of strings"),
    ({"format_version": 1, "covers": []}, "document field 'elements' is not a list of strings"),
    (_doc(elements=[[0], [1]]), "document field 'elements' is not a list of strings"),
    (_doc(covers=None), "document field 'covers' is not a list"),
    (_doc(levels=[0, 1]), "document field 'levels' is not an object"),
    (_doc(levels={"0": 0, "x": 1}), "level key 'x' is not an element index 0..1"),
    (_doc(format_version=True), "unsupported format_version True"),
    (_doc(format_version=1.0), "unsupported format_version 1.0"),
    (_doc(format_version="1"), "unsupported format_version '1'"),
    (_doc(kind="nonsense", n=99), f"document field 'kind' is 'nonsense', not one of {_KINDS}"),
    ({"format_version": 1, "elements": ["a"], "covers": []},
     f"document field 'kind' is None, not one of {_KINDS}"),
    (_doc(n=0), "document field 'n' is 0, not a positive integer"),
    (_doc(n=True), "document field 'n' is True, not a positive integer"),
    (_doc(n=2.0), "document field 'n' is 2.0, not a positive integer"),
    (_doc(n="2"), "document field 'n' is '2', not a positive integer"),
    (_doc(n=None), "document field 'n' is None, not a positive integer"),
])
def test_field_of_the_wrong_json_type_is_rejected(doc, message):
    with pytest.raises(ValueError) as err:
        document_to_poset(doc)
    assert type(err.value) is ValueError
    assert str(err.value) == message
