import hashlib
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamari import (
    INF,
    brute_force_type_a,
    brute_force_type_b,
    element_listing,
    entry_sum,
    enumerate_type_a,
    enumerate_type_b,
    format_vector,
    is_type_a,
    is_type_b,
    leq_componentwise,
    parse_vector,
    type_a_violation,
    type_b_violation,
)
from tamari.cli import main

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


# -- type B membership ---------------------------------------------------------


def test_bottom_is_valid():
    assert is_type_b((0, 0, 0, 0))


def test_one_zero_needs_trailing_inf():
    v = type_b_violation((1, 0))
    assert v is not None and v.rule == "ii" and v.positions == (1, 2)


def test_second_chain_start_is_valid():
    assert is_type_b((0, 0, 1, 2))


def test_rule_i_witness_positions():
    v = type_b_violation((0, 1, 1, 2))
    assert v is not None and v.rule == "i" and v.positions == (2, 3)


@pytest.mark.parametrize("bad", [(0, 5), (0, -1), (0, 1.5), (0, 2.0)])
def test_malformed_type_b_symbols_raise(bad):
    with pytest.raises(ValueError):
        type_b_violation(bad)


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        type_b_violation(())


# -- type A membership ---------------------------------------------------------


def test_identity_is_valid_type_a():
    assert is_type_a((1, 2, 3))


def test_type_a_examples():
    assert is_type_a((3, 2, 3))
    v = type_a_violation((3, 1, 3))
    assert v is not None and v.rule == "i" and v.positions == (2,)
    # v_1 = 2 covers position 2, so v_2 = 3 > 2 breaks rule (ii)
    v = type_a_violation((2, 3, 3))
    assert v is not None and v.rule == "ii" and v.positions == (1, 2)


def test_malformed_type_a_symbols_raise():
    with pytest.raises(ValueError):
        type_a_violation((0, 1, 2))
    with pytest.raises(ValueError):
        type_a_violation((1, 2, 4))


# -- enumeration ----------------------------------------------------------------


def test_enumerate_type_b_n1():
    assert enumerate_type_b(1) == [(0,), (INF,)]


def test_enumerate_type_b_n2_exact():
    assert enumerate_type_b(2) == [
        (0, 0),
        (0, 1),
        (0, INF),
        (1, INF),
        (INF, 0),
        (INF, INF),
    ]


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_equals_brute_force(n):
    assert enumerate_type_b(n) == sorted(brute_force_type_b(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_type_b_counts_are_central_binomials(n):
    # established against the brute-force filter for n <= 5 first
    assert len(enumerate_type_b(n)) == comb(2 * n, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_type_a_counts_are_catalan(n):
    assert len(enumerate_type_a(n)) == CATALAN[n]


@pytest.mark.parametrize("n", range(1, 6))
def test_type_a_enumeration_equals_brute_force(n):
    assert enumerate_type_a(n) == sorted(brute_force_type_a(n))


@pytest.mark.parametrize("bad", [0, -1, 11])
def test_enumeration_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        enumerate_type_b(bad)
    with pytest.raises(ValueError):
        enumerate_type_a(bad)


def test_enumeration_is_sorted():
    for n in range(1, 6):
        elements = enumerate_type_b(n)
        assert elements == sorted(elements)


# -- element texts and the enumerate command ---------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_element_texts_are_the_formatted_vectors(n):
    for kind, enumerate_family in (("a", enumerate_type_a), ("b", enumerate_type_b)):
        texts = [format_vector(v) + "\n" for v in enumerate_family(n)]
        assert element_listing(kind, n) == "".join(texts)


def test_element_texts_rejects_bad_kind_and_n():
    with pytest.raises(ValueError):
        element_listing("c", 3)
    with pytest.raises(ValueError):
        element_listing("b", 11)


def _enumerate_stdout(capsys, *args: str) -> bytes:
    assert main(["enumerate", *args]) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "args, digest",
    [
        # sha256 of what the per-vector enumerators and format_vector printed
        (("--type", "b", "--n", "10", "--format", "list", "--force"),
         "52c232b0dd6c878b189fa4d44d2bbdd2e132643a975567795b02e0469b893777"),
        (("--type", "a", "--n", "10", "--format", "list", "--force"),
         "825e3034594f71abfa51b4798b946692f9409bdcd84df033aa8582f452d0bc34"),
        (("--type", "b", "--n", "7", "--format", "json"),
         "043e3092de90a5bcf0d86fdd3751d25964bc3020c65b9ffc7a6e613d88f100fa"),
    ],
)
def test_enumerate_output_is_unchanged(capsys, args, digest):
    assert hashlib.sha256(_enumerate_stdout(capsys, *args)).hexdigest() == digest


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_count(capsys, n):
    force = ("--force",) if n > 7 else ()
    assert _enumerate_stdout(capsys, "--type", "b", "--n", str(n), "--format", "count", *force) == (
        f"{comb(2 * n, n)}\n".encode()
    )
    catalan = comb(2 * n, n) // (n + 1)
    assert _enumerate_stdout(capsys, "--type", "a", "--n", str(n), "--format", "count", *force) == (
        f"{catalan}\n".encode()
    )


# -- prose consequences of the rules ---------------------------------------------


@pytest.mark.parametrize("n", range(2, 6))
def test_prose_consequences(n):
    for v in enumerate_type_b(n):
        for a, b in zip(v, v[1:]):
            if a == b:
                assert a == 0 or a == INF
            if a == INF:
                assert b == 0 or b == INF
        if v[0] == 1:
            assert v[-1] == INF


@pytest.mark.parametrize("n", range(2, 6))
def test_staircase_is_largest_all_finite(n):
    staircase = tuple(range(n))
    assert is_type_b(staircase)
    for v in enumerate_type_b(n):
        if INF not in v and v != staircase:
            assert leq_componentwise(v, staircase)
            assert not leq_componentwise(staircase, v)


@pytest.mark.parametrize("n", range(1, 5))
def test_unique_bottom_and_top(n):
    elements = enumerate_type_b(n)
    bottom, top = (0,) * n, (INF,) * n
    for v in elements:
        assert leq_componentwise(bottom, v)
        assert leq_componentwise(v, top)
    assert elements[0] == bottom and elements[-1] == top


# -- componentwise order -----------------------------------------------------------


def test_leq_reflexive_and_examples():
    assert leq_componentwise((0, 1), (0, 1))
    assert leq_componentwise((0, 1), (0, INF))
    assert not leq_componentwise((0, INF), (INF, 0))
    assert leq_componentwise((0, 0, 1, 0), (0, 0, 1, 2))


def test_leq_length_mismatch():
    with pytest.raises(ValueError):
        leq_componentwise((0, 1), (0, 1, 2))


# -- entry sums and text form --------------------------------------------------------


def test_entry_sums():
    assert entry_sum((0, 0, 0, 0)) == 0
    assert entry_sum((INF, INF, INF, INF)) == 16
    assert entry_sum((0, 0, 1, 2)) == 3


def test_format_and_parse():
    assert format_vector((0, 0, 3, INF)) == "(0,0,3,inf)"
    assert parse_vector("(0,0,3,inf)") == (0, 0, 3, INF)
    for n in range(1, 5):
        for v in enumerate_type_b(n):
            assert parse_vector(format_vector(v)) == v


@pytest.mark.parametrize("bad", ["", "()", "0,1", "(0,1", "(x,1)"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_vector(bad)


# -- property: the validator and the enumerated set agree --------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validator_matches_enumerated_set(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    symbols = list(range(n)) + [INF]
    v = tuple(data.draw(st.sampled_from(symbols)) for _ in range(n))
    assert is_type_b(v) == (v in set(enumerate_type_b(n)))
