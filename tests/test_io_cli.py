import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

import tamari.cli
import tamari.io
from tamari import Poset, element_listing, tamari_poset
from tamari.io import (
    document_to_poset,
    dumps_document,
    dumps_report,
    elements_document,
    poset_document,
    poset_to_dot,
)
from tamari.lattices import family_size
from tamari.theorems import shifted_level_map, verify_level_sums


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tamari", *args],
        capture_output=True,
        timeout=300,
    )


# -- documents ---------------------------------------------------------------------


def test_document_fields():
    p = tamari_poset("b", 2)
    doc = poset_document(p, kind="tamari_b", n=2, levels=p.level_map("lowest"))
    assert list(doc) == ["format_version", "kind", "n", "elements", "covers", "levels"]
    assert doc["format_version"] == 1
    assert doc["elements"][0] == "(0,0)"
    assert doc["levels"]["0"] == 0
    assert all(len(c) == 2 for c in doc["covers"])


def test_document_round_trip():
    p = tamari_poset("b", 3)
    doc = poset_document(p, kind="tamari_b", n=3, levels=p.level_map("lowest"))
    doc2 = json.loads(dumps_document(doc))
    q = document_to_poset(doc2)
    assert q.labels == doc["elements"]
    assert (q.leq_matrix == p.leq_matrix).all()


def _stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("kind", "ab")
@pytest.mark.parametrize("n", range(1, 8))
def test_poset_document_text_is_the_stdlib_encoding(kind, n):
    p = tamari_poset(kind, n)
    for levels in (None, p.level_map("lowest"), shifted_level_map(p)):
        doc = poset_document(p, kind=f"tamari_{kind}", n=n, levels=levels)
        assert dumps_document(doc) == _stdlib_text(doc)


@pytest.mark.parametrize("n", range(1, 11))
def test_elements_document_text_is_the_stdlib_encoding(n):
    for kind in "ab":
        doc = elements_document(element_listing(kind, n).splitlines(), kind=f"tamari_{kind}", n=n)
        assert dumps_document(doc) == _stdlib_text(doc)


@pytest.mark.parametrize("kind", "ab")
def test_package_documents_never_reach_the_indenting_encoder(kind, monkeypatch):
    """Every document the package writes is laid out by ``dumps_document``
    itself: one that fell back to ``json.dumps(indent=2)`` would be written
    by the pure-Python encoder, about four times slower."""
    docs = [elements_document(element_listing(kind, n).splitlines(), kind=f"tamari_{kind}", n=n)
            for n in range(1, 11)]
    for n in range(1, 8):
        p = tamari_poset(kind, n)
        for levels in (None, p.level_map("lowest"), shifted_level_map(p)):
            docs.append(poset_document(p, kind=f"tamari_{kind}", n=n, levels=levels))
    texts = [_stdlib_text(doc) for doc in docs]
    # T_1 has one element and no covers, T_1^B two elements and one cover
    assert ('"covers": []' in texts[10]) == (kind == "a")

    def dumps(obj, **kwargs):
        if "indent" in kwargs:
            raise AssertionError("dumps_document fell back to json.dumps(indent=...)")
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(tamari.io, "json", SimpleNamespace(dumps=dumps))
    for doc, text in zip(docs, texts):
        assert dumps_document(doc) == text


@pytest.mark.parametrize("doc", [
    [], {}, {"a": [], "b": {}}, [[], {}], [[[]]],
    [[1, 2], [3, 4]], [[1, 2], [3]], [[1, 2], (3, 4)], [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
    {"covers": [[0, 1], [1, 2]], "rows": [["a", "b"], ["c", "d"]]}, {"k": (1, (2, 3))},
    {"a": [1, 2], "b": [3, 4]}, {"x": [["a"], ["b"]], "y": [["c"], ["d"]]}, [{}, {"a": 1}],
    [True, None, False], [1, True, 0, False], [[1, True]], [1, 2**70], [0.5, -1.5],
    {1: "x", True: "t", None: [], 2.5: {}}, {"a": 1, "b": "1", "c": [1, "1"]},
    ['q"uote', "back\\slash", "ctl\x00\x1f\n\t", "caf\xe9 \u2028 \U0001f600", "%s %d %%"],
    {'"': 1, "\\": "\\", "\x7f": ["%s"]},
], ids=lambda doc: repr(doc)[:40])
def test_edge_document_text_is_the_stdlib_encoding(doc):
    assert dumps_document(doc) == _stdlib_text(doc)


@pytest.mark.parametrize("doc", [
    {"a": float("nan")}, [[1.0, float("nan")]], {"levels": {"0": float("inf")}}, {float("nan"): 1},
])
def test_document_writer_refuses_what_json_refuses(doc):
    with pytest.raises(ValueError):
        _stdlib_text(doc)
    with pytest.raises(ValueError):
        dumps_document(doc)


def test_document_without_covers_cannot_rebuild():
    p = tamari_poset("b", 2)
    doc = elements_document(p.labels, kind="tamari_b", n=2)
    assert "covers" not in doc
    with pytest.raises(ValueError):
        document_to_poset(doc)


def test_document_rejects_bad_version():
    with pytest.raises(ValueError):
        document_to_poset({"format_version": 99, "elements": [], "covers": []})


def test_document_rejects_comparable_level_fiber():
    doc = {
        "format_version": 1,
        "kind": "generic",
        "elements": ["a", "b"],
        "covers": [[0, 1]],
        "levels": {"0": 0, "1": 0},
    }
    with pytest.raises(ValueError):
        document_to_poset(doc)


def test_report_document_shape():
    text = dumps_report(verify_level_sums(2))
    doc = json.loads(text)
    assert doc["claim"] == "lemma1"
    assert doc["n"] == 2
    assert doc["status"] == "verified"
    assert "witness" not in doc


@pytest.mark.parametrize("command, digest", [
    ("verify --claim all --n 2..7",
     "60372a5e276539eeeeff4b3575be960b2223583f4e7273e4b1e2b4c0e2709482"),
    ("verify --claim thm1 --n 4..7",
     "3241ae18d2fa774db05f0428b566d671597ac388c64b55cf671d5a8cd62746be"),
    # the isomorphisms found between each leveled subposet and its dual
    ("verify --claim remarks --n 2..7",
     "7e40f32290a355c7e9c53c253490ae4230ab70108e615565742f4a1eb5200cdc"),
])
def test_report_bytes_are_pinned(capsys, command, digest):
    assert tamari.cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- DOT -----------------------------------------------------------------------------


def test_dot_single_node():
    p = Poset.from_predicate(["only"], lambda a, b: True)
    text = poset_to_dot(p)
    assert 'n0 [label="only"];' in text
    assert "->" not in text


def test_dot_t2b_counts():
    p = tamari_poset("b", 2)
    text = poset_to_dot(p, name="t", levels=p.level_map("lowest"))
    assert text.count("label=") == 6
    assert text.count("->") == len(p.covers) == 6
    assert text.count("rank=same") == 5


def test_dot_labels_escape_backslash_and_quote():
    labels = ["a\\", 'b"c', 'd\\"e', "plain"]
    p = Poset.from_covers(labels, [(0, 1)])
    node = re.compile(r'  n[0-9]+ \[label="((?:[^"\\]|\\.)*)"\];')
    found = [node.fullmatch(line) for line in poset_to_dot(p).splitlines() if "label=" in line]
    assert [m and re.sub(r"\\(.)", r"\1", m[1]) for m in found] == labels


# -- CLI ------------------------------------------------------------------------------


def test_cli_enumerate_count():
    result = run_cli("enumerate", "--type", "b", "--n", "2", "--format", "count")
    assert result.returncode == 0
    assert result.stdout == b"6\n"


def test_cli_enumerate_count_type_a():
    result = run_cli("enumerate", "--type", "a", "--n", "3", "--format", "count")
    assert result.stdout == b"5\n"


def test_cli_enumerate_list_n1():
    result = run_cli("enumerate", "--type", "b", "--n", "1")
    assert result.stdout == b"(0)\n(inf)\n"


def test_cli_export_json_covers():
    result = run_cli("export", "--type", "b", "--n", "2", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["kind"] == "tamari_b"
    assert len(doc["elements"]) == 6
    assert len(doc["covers"]) == 6


def test_cli_lambda_full():
    result = run_cli("lambda", "--type", "b", "--n", "2")
    assert result.stdout == b"[5, 1]\n"


def test_cli_lambda_k():
    result = run_cli("lambda", "--type", "b", "--n", "4", "--k", "1")
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "17"
    result = run_cli("lambda", "--type", "b", "--n", "4", "--k", "2")
    assert result.stdout.decode().splitlines()[0] == "29"


def test_cli_verify_exit_codes():
    result = run_cli("verify", "--claim", "thm1", "--n", "4..6")
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert [r["status"] for r in reports] == ["verified"] * 3

    result = run_cli("verify", "--claim", "thm1", "--n", "3")
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "skipped"

    result = run_cli("verify", "--claim", "lemma1", "--n", "2")
    assert json.loads(result.stdout)["status"] == "verified"

    result = run_cli("verify", "--claim", "remarks", "--n", "2..3")
    assert result.returncode == 0
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(reports) == 6
    assert all(r["status"] != "refuted" for r in reports)


def test_cli_export_json_has_levels_only_when_asked(tmp_path):
    out = tmp_path / "t4.json"
    result = run_cli(
        "export", "--type", "b", "--n", "4", "--format", "json",
        "--layout", "lowest", "--out", str(out),
    )
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["elements"]) == 70
    assert "levels" in doc

    result = run_cli("export", "--type", "b", "--n", "4", "--format", "json")
    assert "levels" not in json.loads(result.stdout)


def test_cli_export_dot(tmp_path):
    result = run_cli("export", "--type", "b", "--n", "2", "--format", "dot")
    text = result.stdout.decode()
    assert text.count("label=") == 6
    assert text.count("->") == 6


def test_cli_export_unwritable_path():
    result = run_cli(
        "export", "--type", "b", "--n", "2", "--format", "dot",
        "--out", "/nonexistent-dir/x.dot",
    )
    assert result.returncode == 1
    assert b"error" in result.stderr


def test_cli_rejects_bad_n():
    assert run_cli("enumerate", "--type", "b", "--n", "0").returncode != 0
    assert run_cli("enumerate", "--type", "b", "--n", "x").returncode != 0
    assert run_cli("enumerate", "--type", "c", "--n", "2").returncode != 0
    assert run_cli("verify", "--claim", "lemma1", "--n", "1").returncode == 2


def test_cli_cap_and_force():
    result = run_cli("enumerate", "--type", "b", "--n", "8", "--format", "count")
    assert result.returncode != 0
    result = run_cli(
        "enumerate", "--type", "b", "--n", "8", "--format", "count", "--force"
    )
    assert result.returncode == 0
    assert result.stdout == b"12870\n"
    assert b"warning" in result.stderr


def test_cli_poset_commands_stop_at_poset_cap():
    result = run_cli("lambda", "--type", "b", "--n", "8")
    assert result.returncode != 0
    assert b"poset cap" in result.stderr
    result = run_cli("export", "--type", "b", "--n", "8", "--format", "json")
    assert result.returncode != 0


@pytest.mark.parametrize("command", [
    ("lambda", "--type", "b", "--n", "4"),
    ("verify", "--claim", "thm1", "--n", "4"),
    ("export", "--type", "b", "--n", "4", "--format", "json"),
])
def test_cli_force_is_an_enumerate_option_only(command):
    # the poset commands stop at the poset cap, which is below the default cap
    result = run_cli(*command, "--force")
    assert result.returncode == 2
    assert result.stdout == b""


def test_cli_enumerate_has_no_hasse_option():
    # export --format json writes the covers
    result = run_cli("enumerate", "--type", "b", "--n", "4", "--format", "json", "--hasse")
    assert result.returncode == 2
    assert result.stdout == b""


def test_cli_export_json_is_the_former_enumerate_hasse_document():
    # sha256 of what `enumerate --type b --n 4 --format json --hasse` printed
    result = run_cli("export", "--type", "b", "--n", "4", "--format", "json")
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "be5d189b5f1ef3522b60b4ae263a66c03a6eecde9b57e51067fba6073a96acba"
    )


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


def test_cli_verify_checks_every_n_before_any_claim(monkeypatch, capsys):
    monkeypatch.setattr(tamari.cli, "verify_claims", _refuse)
    with pytest.raises(SystemExit) as exit_:
        tamari.cli.main(["verify", "--claim", "all", "--n", "1..3"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be at least 2" in captured.err


def test_cli_lambda_checks_k_before_building_the_poset(monkeypatch, capsys):
    monkeypatch.setattr(tamari.cli, "tamari_poset", _refuse)
    with pytest.raises(SystemExit) as exit_:
        tamari.cli.main(["lambda", "--type", "b", "--n", "7", "--k", "0"])
    assert exit_.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ("enumerate", "--type", "b", "--n", "1_0", "--force"),
    ("enumerate", "--type", "b", "--n", "+3"),
    ("enumerate", "--type", "b", "--n", "\u0664"),  # ARABIC-INDIC DIGIT FOUR
    ("enumerate", "--type", "b", "--n", " 3"),
    ("enumerate", "--type", "b", "--n", "3\n"),
    ("enumerate", "--type", "b", "--n", "2..3"),
    ("lambda", "--type", "b", "--n", "-4"),
    ("export", "--type", "b", "--n", "", "--format", "json"),
    ("verify", "--claim", "all", "--n", " 2.. 3"),
    ("verify", "--claim", "all", "--n", "2..+3"),
    ("verify", "--claim", "all", "--n", "2...3"),
    ("verify", "--claim", "all", "--n", "3..2"),
])
def test_cli_accepts_only_ascii_digits_as_n(monkeypatch, capsys, args):
    for name in ("element_listing", "tamari_poset", "verify_claims"):
        monkeypatch.setattr(tamari.cli, name, _refuse)
    with pytest.raises(SystemExit) as exit_:
        tamari.cli.main(list(args))
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad n value {args[args.index('--n') + 1]!r}" in captured.err


@pytest.mark.parametrize("k", [
    "1_0", "+2", " 2", "2 ", "2\n", "\u0662",  # ARABIC-INDIC DIGIT TWO
    "-1", "", "x", "2.0", "2..3",
])
def test_cli_accepts_only_ascii_digits_as_k(monkeypatch, capsys, k):
    monkeypatch.setattr(tamari.cli, "tamari_poset", _refuse)
    with pytest.raises(SystemExit) as exit_:
        tamari.cli.main(["lambda", "--type", "b", "--n", "2", "--k", k])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad k value {k!r}" in captured.err


@pytest.mark.parametrize("args, message", [
    (("lambda", "--type", "b", "--n", "2", "--k", "0"), "k must be at least 1"),
    (("lambda", "--type", "b", "--n", "2", "--k", "00"), "k must be at least 1"),
    # more digits than int() converts is not a value either
    (("lambda", "--type", "b", "--n", "2", "--k", "1" * 5000), f"bad k value '{'1' * 5000}'"),
    (("lambda", "--type", "b", "--n", "1" * 5000), f"bad n value '{'1' * 5000}'"),
    # more chains than elements: refused from n alone
    (("lambda", "--type", "b", "--n", "5", "--k", "1" + "0" * 20),
     f"k=1{'0' * 20} exceeds the 252 elements of T_5^B"),
    (("lambda", "--type", "b", "--n", "3", "--k", "21"), "k=21 exceeds the 20 elements of T_3^B"),
    (("lambda", "--type", "a", "--n", "3", "--k", "6"), "k=6 exceeds the 5 elements of T_3"),
], ids=["k_zero", "k_zeros", "k_past_int_digits", "n_past_int_digits", "k_21_digits",
        "k_past_t3b", "k_past_t3"])
def test_cli_k_shares_the_n_bounds_check(monkeypatch, capsys, args, message):
    monkeypatch.setattr(tamari.cli, "tamari_poset", _refuse)
    with pytest.raises(SystemExit) as exit_:
        tamari.cli.main(list(args))
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_cli_lambda_answers_k_equal_to_the_element_count(capsys):
    assert tamari.cli.main(["lambda", "--type", "b", "--n", "3", "--k", "20"]) == 0
    head, *chains = capsys.readouterr().out.splitlines()
    assert head == "20"
    assert len(chains) == 20


def test_cli_lambda_k_lines_end_without_a_space(capsys):
    for kind in "ab":
        for n in range(1, 6):
            for k in (1, 2, 3, 4):
                if k <= family_size(kind, n):
                    argv = ["lambda", "--type", kind, "--n", str(n), "--k", str(k)]
                    assert tamari.cli.main(argv) == 0
                    lines = capsys.readouterr().out.splitlines()
                    assert not [line for line in lines if line.endswith(" ")], (kind, n, k)
    assert tamari.cli.main(["lambda", "--type", "a", "--n", "2", "--k", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "chain 2 (0 elements):"


@pytest.mark.parametrize("text, message", [
    ("2..3000000", "n=8 exceeds the poset cap 7"),
    ("1..3000000", "n must be at least 2"),
])
def test_cli_checks_a_wide_n_range_by_its_ends(monkeypatch, capsys, text, message):
    # the range is refused before any of its values exists
    monkeypatch.setattr(tamari.cli, "verify_claims", _refuse)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exit_:
            tamari.cli.main(["verify", "--claim", "all", "--n", text])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
    assert peak < 4_000_000


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--claim", "all", "--n", "2"),
        ("enumerate", "--type", "b", "--n", "3"),
        ("enumerate", "--type", "a", "--n", "3", "--format", "count"),
    ],
)
def test_cli_stops_quietly_on_a_closed_pipe(monkeypatch, capsys, args):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert tamari.cli.main(list(args)) == tamari.cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


def test_cli_whose_reader_is_gone_exits_without_traceback():
    # the read end closes long before the command has anything to write
    proc = subprocess.Popen([sys.executable, "-m", "tamari", "verify", "--claim", "all", "--n", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert err == b""


def test_tamari_poset_cap():
    with pytest.raises(ValueError):
        tamari_poset("b", 8)
    with pytest.raises(ValueError):
        tamari_poset("c", 3)


@pytest.mark.parametrize("levels,bad", [
    ({"0": 0, "1": 1, "-3": 1}, "-3"),  # would wrap onto element 0
    ({"0": 0, "7": 1}, "7"),
    ({"-1": 0}, "-1"),  # a lone key is never compared with anything
    # keys int() reads as an index but poset_document never writes
    ({"0": 0, "1": 1, "01": 7}, "01"),
    ({"0": 0, " 2": 2}, " 2"),
    ({"+1": 1}, "+1"),
])
def test_document_rejects_level_keys_outside_the_elements(levels, bad):
    doc = {
        "format_version": 1,
        "kind": "generic",
        "elements": ["a", "b", "c"],
        "covers": [[0, 1], [1, 2]],
        "levels": levels,
    }
    with pytest.raises(ValueError, match=re.escape(f"level key '{bad}'")):
        document_to_poset(doc)


@pytest.mark.parametrize("layout", [None, "lowest", "shifted"])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_and_read_back_build_no_up_rows(monkeypatch, capsys, fmt, layout):
    # the stored down rows serve the export, its levels and the read-back's
    # comparison with the family: no up row is built for any of them
    p = tamari_poset.__wrapped__("b", 5)  # a fresh poset, not the cached one
    monkeypatch.setattr(tamari.cli, "tamari_poset", lambda kind, n: p)
    monkeypatch.setattr(tamari.io, "tamari_poset", lambda kind, n: p)
    argv = ["export", "--type", "b", "--n", "5", "--format", fmt]
    assert tamari.cli.main(argv + (["--layout", layout] if layout else [])) == 0
    out = capsys.readouterr().out
    assert "_up" not in vars(p)
    if fmt == "json":
        q = document_to_poset(json.loads(out))
        assert q.covers == p.covers
        assert "_up" not in vars(p) and "_up" not in vars(q)
