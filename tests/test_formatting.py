"""The canonical vector text: table lookups give the bytes of per-entry formatting."""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tamari.cli
from tamari import INF, enumerate_type_a, enumerate_type_b, format_vector
from tamari.elements import format_entry


def reference_format_vector(v) -> str:
    """The per-entry formatting ``format_vector`` replaced; its bytes are the spec."""
    return "(" + ",".join(format_entry(e) for e in v) + ")"


@pytest.mark.parametrize("n", range(1, 7))
def test_format_vector_matches_reference_on_every_element(n):
    for v in enumerate_type_b(n) + enumerate_type_a(n):
        assert format_vector(v) == reference_format_vector(v)


def test_entries_outside_the_table_are_formatted_one_by_one():
    odd = (True, 1.0, -3, 11, float("inf"), INF, 0, 10)
    assert format_vector(odd) == reference_format_vector(odd)
    assert format_vector(odd) == "(True,1.0,-3,11,inf,inf,0,10)"


@given(st.lists(st.one_of(
    st.integers(-15, 15), st.booleans(), st.floats(allow_nan=False), st.just(INF),
), max_size=12))
def test_mixed_entries_match_reference(entries):
    assert format_vector(entries) == reference_format_vector(entries)


def _stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert tamari.cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("kind", ["a", "b"])
@pytest.mark.parametrize("n", range(1, 8))
def test_listing_matches_one_print_per_vector(kind, n):
    elements = enumerate_type_b(n) if kind == "b" else enumerate_type_a(n)
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        for v in elements:
            print(reference_format_vector(v))
    argv = ["enumerate", "--type", kind, "--n", str(n), "--format", "list"]
    assert _stdout_of(argv) == expected.getvalue()
