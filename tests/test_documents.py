"""Malformed poset documents: cover pairs, level values and element labels."""

import json
import tracemalloc

import numpy as np
import pytest

import tamari.elements
import tamari.io
import tamari.lattices
from tamari import Poset, PosetError, element_listing, enumerate_type_b, format_vector, tamari_poset
from tamari.io import _KINDS, document_to_poset, elements_document, poset_document
from tamari.theorems import shifted_level_map


def _doc(**fields) -> dict:
    doc = {"format_version": 1, "kind": "generic", "elements": ["a", "b"], "covers": [[0, 1]]}
    doc.update(fields)
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("pair", [[True, 1], [0, 1.0], [0.0, 1], ["0", "1"], [0]])
def test_cover_that_is_not_two_indices_is_rejected(pair):
    # a Tamari document's well-formed covers add nothing that makes it valid
    for doc in (_doc(covers=[pair]), _t3b_doc(covers=_t3b_doc()["covers"] + [pair])):
        with pytest.raises(PosetError) as err:
            document_to_poset(doc)
        assert str(err.value) == f"cover {pair!r} is not a pair of element indices"


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


def _t3b_doc(**fields) -> dict:
    doc = poset_document(tamari_poset("b", 3), kind="tamari_b", n=3)
    doc.update(fields)
    return json.loads(json.dumps(doc))


def _t3b_covers_plus(lower: str, upper: str) -> list:
    doc = _t3b_doc()
    return doc["covers"] + [[doc["elements"].index(lower), doc["elements"].index(upper)]]


_T2 = {"format_version": 1, "kind": "tamari_a", "n": 2, "elements": ["(1,2)", "(2,2)"]}

_FAMILY_REFUSALS = [
    ({"format_version": 1, "kind": "tamari_b", "n": 3, "elements": ["(0,0,0)", "(5,x)"],
      "covers": [[0, 1]]},
     "document field 'elements' has 2 entries, but T_3^B has 20 elements"),
    ({**_T2, "covers": [[1, 0]]},
     "document field 'covers' has (2,2) < (1,2), not a cover of T_2"),
    ({**_T2, "covers": []}, "document field 'covers' misses the cover (1,2) < (2,2) of T_2"),
    ({**_T2, "n": None, "covers": [[0, 1]]},
     "document field 'n' is None, not a positive integer"),
    ({**_T2, "n": 11, "covers": [[0, 1]]},
     "document field 'n' is 11, beyond the poset cap 7"),
    ({**_T2, "elements": ["(2,2)", "(1,2)"], "covers": [[1, 0]]},
     "document field 'elements' has '(2,2)' at index 0, where T_2 has '(1,2)'"),
    ({**_T2, "elements": ["(1, 2)", "(2,2)"], "covers": [[0, 1]]},
     "document field 'elements' has '(1, 2)' at index 0, where T_2 has '(1,2)'"),
    (_t3b_doc(n=4), "document field 'elements' has 20 entries, but T_4^B has 70 elements"),
    (_t3b_doc(kind="tamari_a"), "document field 'elements' has 20 entries, but T_3 has 5 elements"),
    (_t3b_doc(covers=_t3b_covers_plus("(0,0,2)", "(0,1,0)")),
     "document field 'covers' has (0,0,2) < (0,1,0), not a cover of T_3^B"),
    (_t3b_doc(covers=_t3b_doc()["covers"][1:]),
     "document field 'covers' misses the cover (0,0,0) < (0,0,1) of T_3^B"),
    (_t3b_doc(covers=_t3b_doc()["covers"] + [[1, 0]]),  # a reversed cover
     "document field 'covers' has (0,0,1) < (0,0,0), not a cover of T_3^B"),
]


@pytest.mark.parametrize("doc, message", _FAMILY_REFUSALS)
def test_tamari_document_must_be_its_family(doc, message):
    with pytest.raises(ValueError) as err:
        document_to_poset(doc)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_tamari_document_needs_n():
    doc = {**_T2, "covers": [[0, 1]]}
    del doc["n"]
    with pytest.raises(ValueError) as err:
        document_to_poset(doc)
    assert str(err.value) == "document field 'n' is missing; kind 'tamari_a' needs it"


def test_tamari_document_names_its_family_without_an_explicit_n():
    for kind in "ab":
        p = tamari_poset(kind, 4)
        doc = poset_document(p, kind=f"tamari_{kind}")
        assert doc["n"] == 4
        assert document_to_poset(json.loads(json.dumps(doc))).covers == p.covers


@pytest.mark.parametrize("kind", "ab")
@pytest.mark.parametrize("n", range(1, 8))
def test_tamari_document_read_back_writes_again_without_an_explicit_n(kind, n):
    # a read-back document's labels are texts: n is their number of entries
    doc = json.loads(json.dumps(poset_document(tamari_poset(kind, n), kind=f"tamari_{kind}")))
    again = poset_document(document_to_poset(doc), kind=f"tamari_{kind}")
    assert again == doc
    assert document_to_poset(json.loads(json.dumps(again))).covers == tamari_poset(kind, n).covers
    listing = element_listing(kind, n).splitlines()
    assert elements_document(listing, kind=f"tamari_{kind}")["n"] == n


def _refuse_to_build(*args):
    raise AssertionError("a document above the poset cap was listed or built")


@pytest.mark.parametrize("n", [10, 8])
def test_tamari_document_above_the_cap_costs_nothing(monkeypatch, n):
    # the family's exact labels, so only the cap can refuse it
    labels = element_listing("b", n).splitlines()
    doc = {"format_version": 1, "kind": "tamari_b", "n": n, "elements": labels, "covers": []}
    monkeypatch.setattr(Poset, "from_vectors", classmethod(_refuse_to_build))
    for module in (tamari.elements, tamari.lattices, tamari.io, tamari):
        for name in ("enumerate_type_b", "element_listing"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse_to_build)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            document_to_poset(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"document field 'n' is {n}, beyond the poset cap 7"
    assert peak < 64 * 2**20


def test_tamari_document_cover_list_may_repeat_implied_pairs():
    doc = _t3b_doc(covers=_t3b_covers_plus("(0,0,0)", "(inf,inf,inf)"))
    assert document_to_poset(doc).covers == tamari_poset("b", 3).covers


@pytest.mark.parametrize("extra, message", [
    ([0, 20], "cover (0,20) out of range for 20 elements"),
    ([-1, 0], "cover (-1,0) out of range for 20 elements"),
])
def test_tamari_document_with_a_bad_cover_is_refused_as_a_generic_one(extra, message):
    with pytest.raises(PosetError) as err:
        document_to_poset(_t3b_doc(covers=_t3b_doc()["covers"] + [extra]))
    assert str(err.value) == message


@pytest.mark.parametrize("covers", [
    _t3b_covers_plus("(0,0,1)", "(0,1,inf)"),  # a redundant strict pair
    _t3b_doc()["covers"][::-1],
    _t3b_doc()["covers"] + [[4, 4]],  # a self-loop, dropped as from_covers drops it
], ids=["redundant_pair", "shuffled", "self_loop"])
def test_tamari_document_covers_need_only_generate_the_order(covers):
    q = document_to_poset(_t3b_doc(covers=covers))
    assert q.labels == _t3b_doc()["elements"]
    assert q.covers == tamari_poset("b", 3).covers


@pytest.mark.parametrize("kind", "ab")
@pytest.mark.parametrize("n", range(1, 8))
def test_tamari_document_reads_back_as_the_closure_of_its_covers(kind, n):
    p = tamari_poset(kind, n)
    levels = shifted_level_map(p) if n % 2 else None
    doc = json.loads(json.dumps(poset_document(p, kind=f"tamari_{kind}", levels=levels)))
    q = document_to_poset(doc)
    closure = Poset.from_covers(doc["elements"], doc["covers"])
    assert q.labels == closure.labels == doc["elements"]
    assert q.covers == closure.covers
    assert (q.leq_matrix == closure.leq_matrix).all()


def test_valid_tamari_document_reads_back_without_a_closure(monkeypatch):
    def refuse(*args):
        raise AssertionError("a valid Tamari document was closed over its covers")

    levels = shifted_level_map(tamari_poset("b", 3)).levels
    doc = _t3b_doc(levels={str(i): lv for i, lv in enumerate(levels)})
    monkeypatch.setattr(Poset, "from_covers", classmethod(refuse))
    q = document_to_poset(doc)
    assert q.labels == doc["elements"]
    assert q.covers == tamari_poset("b", 3).covers
    # nor is an invalid one: each is refused by the comparison with its family
    for bad, message in _FAMILY_REFUSALS:
        with pytest.raises(ValueError) as err:
            document_to_poset(bad)
        assert str(err.value) == message
