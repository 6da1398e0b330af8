"""The benchmark's workloads: the ops each one runs and the oracle for each op.

An op is one user-visible action: a ``tamari`` command line run in-process
through ``tamari.cli.main`` with its output captured, or one library call.
Every op starts by clearing the ``tamari_poset`` cache (done by the runner),
so it pays what a fresh ``tamari`` process pays.  The oracles are written
here from the definitions (componentwise order, central binomial and
Catalan counts, the paper's n^2 + 1 and n^2 - 4); none of them imports the
repository's tests.  Where an answer is not unique (explicit chains and
antichains) the oracle checks properties, not bytes.

The seed only sets the order of the op groups inside a workload; ops in one
group stay adjacent because a later op reads an earlier one's output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import tamari
import tamari.cli
import tamari.io
import tamari.lattices

# Held before any tracing wrapper replaces the module attributes, so the
# runner can always reach cache_clear / cache_info.
CACHED_TAMARI_POSET = tamari.lattices.tamari_poset


@dataclass
class PassState:
    """What the ops of one pass share: earlier outputs and byte counts."""

    outputs: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[PassState], object]
    # None when the output is correct, otherwise a one-line problem.
    check: Callable[[object], str | None]


# -- oracle helpers ----------------------------------------------------------

_VECTOR = re.compile(r"\(([^()]*)\)")


def parse_vector(text: str) -> tuple:
    return tuple(math.inf if e == "inf" else int(e) for e in text.split(","))


def vectors_in(text: str) -> list[tuple]:
    return [parse_vector(body) for body in _VECTOR.findall(text)]


def family_size(kind: str, n: int) -> int:
    """|T_n^B| = C(2n, n); |T_n| = Catalan(n)."""
    central = math.comb(2 * n, n)
    return central if kind == "b" else central // (n + 1)


def leq(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def is_chain(chain: list[tuple]) -> bool:
    return all(a != b and leq(a, b) for a, b in zip(chain, chain[1:]))


def is_antichain(vectors: list[tuple]) -> bool:
    if len(vectors) < 2:
        return True
    grid = np.array(vectors, dtype=float)  # inf survives the float cast
    below = (grid[:, None, :] <= grid[None, :, :]).all(axis=2)
    return int(below.sum()) == len(vectors)  # only the diagonal


def componentwise_matrix_matches(labels: list[tuple], matrix: np.ndarray) -> bool:
    """matrix[i, j] == (labels[i] <= labels[j] componentwise), row block by row block."""
    grid = np.array(labels, dtype=float)  # inf survives the float cast
    if matrix.shape != (len(labels), len(labels)):
        return False
    for lo in range(0, len(labels), 256):
        block = (grid[lo : lo + 256, None, :] <= grid[None, :, :]).all(axis=2)
        if not np.array_equal(block, matrix[lo : lo + 256]):
            return False
    return True


def conjugate(parts: list[int]) -> list[int]:
    return [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]


# -- ops -----------------------------------------------------------------------


def cli_op(command: str, check: Callable[[str], str | None], keep: str | None = None) -> Op:
    """``tamari <command>`` run in-process; stdout is captured for the oracle."""
    argv = command.split()

    def run(state: PassState) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tamari.cli.main(argv)
        text = out.getvalue()
        if keep is not None:
            state.outputs[keep] = text
        return code, text

    def check_cli(result: tuple[int, str]) -> str | None:
        code, text = result
        return f"exit code {code}" if code != 0 else check(text)

    return Op(f"tamari {command}", run, check_cli)


def check_lambda(kind: str, n: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        parts = json.loads(text)
        if any(p <= 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
            return "parts are not positive and weakly decreasing"
        if sum(parts) != family_size(kind, n):
            return f"parts sum to {sum(parts)}, not {family_size(kind, n)}"
        longest = n * n + 1 if kind == "b" else n * (n - 1) // 2 + 1
        if parts[0] != longest:
            return f"first part {parts[0]}, expected {longest}"
        if kind == "b" and n >= 4 and parts[1] != n * n - 4:
            return f"second part {parts[1]}, expected {n * n - 4}"
        return None

    return check


def check_two_chains(n: int) -> Callable[[str], str | None]:
    """``lambda --k 2`` on T_n^B: two disjoint chains totalling lambda_1 + lambda_2."""

    def check(text: str) -> str | None:
        head, *lines = text.splitlines()
        total = int(head)
        if total != 2 * n * n - 3:
            return f"total {total}, expected lambda_1 + lambda_2 = {2 * n * n - 3}"
        if len(lines) != 2:
            return f"{len(lines)} chain lines, expected 2"
        chains = []
        for line in lines:
            stated = int(re.search(r"\((\d+) elements\)", line).group(1))
            chain = vectors_in(line.split(":", 1)[1])
            if len(chain) != stated or not is_chain(chain):
                return f"not a componentwise chain of {stated} elements: {line[:60]}"
            chains.append(chain)
        if set(chains[0]) & set(chains[1]):
            return "the two chains intersect"
        if sum(map(len, chains)) != total:
            return "chain lengths do not add up to the total"
        return None

    return check


def expected_status(claim: str, n: int) -> str:
    """What the seed reports for each claim: verified, except where the
    claim does not apply to n (thm1 needs n >= 4, T_2^B happens to be
    self-dual, the level-size remark is stated for n = 5 only)."""
    skipped = (
        (claim == "thm1" and n < 4)
        or (claim == "remarks.self_duality" and n == 2)
        or (claim == "remarks.leveled_level_sizes" and n != 5)
    )
    return "skipped" if skipped else "verified"


VERIFY_CLAIMS = (
    "lemma1",
    "thm1",
    "remarks.self_duality",
    "remarks.leveled_self_duality",
    "remarks.leveled_level_sizes",
)


def check_verify(ns: list[int]) -> Callable[[str], str | None]:
    """Every (claim, n) report present once with its expected status; a
    verified thm1 states lambda_1, lambda_2 = n^2 + 1, n^2 - 4."""

    def check(text: str) -> str | None:
        reports = [json.loads(line) for line in text.splitlines()]
        got = {(r["claim"], r["n"]): r for r in reports}
        want = [(claim, n) for n in ns for claim in VERIFY_CLAIMS]
        if len(reports) != len(want) or set(got) != set(want):
            return f"{len(reports)} reports for {len(got)} (claim, n) pairs, expected {len(want)}"
        for (claim, n), r in got.items():
            if r["status"] != expected_status(claim, n):
                return f"{claim} at n = {n} is {r['status']}, expected {expected_status(claim, n)}"
            if claim == "thm1" and r["status"] == "verified":
                if r["data"]["lambda"] != [n * n + 1, n * n - 4]:
                    return f"thm1 at n = {n} states lambda {r['data']['lambda']}"
        return None

    return check


def check_enumerate(kind: str, n: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        lines = text.splitlines()
        if len(lines) != family_size(kind, n) or len(set(lines)) != len(lines):
            return f"{len(lines)} lines ({len(set(lines))} distinct), expected {family_size(kind, n)}"
        return None

    return check


def cover_count(n: int) -> int:
    # Every cover of T_n^B changes one coordinate, n * N / 2 covers in all;
    # observed for every n <= 7 (12,012 covers for T_7^B).
    return n * family_size("b", n) // 2


def check_export_json(n: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        size = family_size("b", n)
        if len(doc["elements"]) != size or len(doc["levels"]) != size:
            return f"{len(doc['elements'])} elements, {len(doc['levels'])} levels, expected {size}"
        if len(doc["covers"]) != cover_count(n):
            return f"{len(doc['covers'])} covers, expected {cover_count(n)}"
        return None

    return check


def check_export_dot(n: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        nodes = re.findall(r'^  (n\d+) \[label="\(([^"]*)\)"\];$', text, re.M)
        labels = {node: parse_vector(body) for node, body in nodes}
        edges = re.findall(r"^  (n\d+) -> (n\d+);$", text, re.M)
        if len(labels) != family_size("b", n) or len(edges) != cover_count(n):
            return f"{len(labels)} nodes and {len(edges)} edges"
        if not all(labels[u] != labels[v] and leq(labels[u], labels[v]) for u, v in edges):
            return "an edge does not go up in the componentwise order"
        for group in re.findall(r"^  \{ rank=same; (.*) \}$", text, re.M):
            if not is_antichain([labels[m] for m in group.replace(";", "").split()]):
                return "a rank group is not an antichain"
        return None

    return check


def read_back_op(n: int) -> Op:
    """Rebuild the poset from the JSON export kept earlier in the pass."""

    def run(state: PassState):
        text = state.outputs["export_json"]
        state.counts["io.bytes_in"] += len(text)
        return tamari.io.document_to_poset(json.loads(text))

    def check(p) -> str | None:
        labels = [parse_vector(lab[1:-1]) for lab in p.labels]
        if len(labels) != family_size("b", n):
            return f"{len(labels)} elements read back"
        if not componentwise_matrix_matches(labels, p.leq_matrix):
            return "rebuilt order differs from the componentwise relation"
        return None

    return Op(f"document_to_poset(json export of T_{n}^B)", run, check)


def is_lattice_op(n: int) -> Op:
    def run(state: PassState) -> bool:
        return tamari.is_lattice(tamari.tamari_poset("b", n))

    return Op(f"is_lattice(T_{n}^B)", run, lambda r: None if r is True else f"returned {r!r}")


@functools.lru_cache(maxsize=None)
def conjugate_of_lambda(n: int) -> tuple[int, ...]:
    """Conjugate of lambda(T_n^B), from the untraced library, once per n."""
    return tuple(conjugate(list(tamari.gk_partition(CACHED_TAMARI_POSET("b", n)).parts)))


def antichain_op(n: int, k: int) -> Op:
    def run(state: PassState):
        return tamari.max_antichain_union(tamari.tamari_poset("b", n), k)

    def check(family) -> str | None:
        labels = CACHED_TAMARI_POSET("b", n).labels
        target = sum(conjugate_of_lambda(n)[:k])
        members = [i for a in family.antichains for i in a]
        if len(family.antichains) != k or len(set(members)) != len(members):
            return "antichains are not k pairwise-disjoint sets"
        if not all(is_antichain([labels[i] for i in a]) for a in family.antichains):
            return "a member family is not an antichain"
        if len(members) != target or family.total != target:
            return f"total {len(members)} (reported {family.total}), conjugate prefix {target}"
        return None

    return Op(f"max_antichain_union(T_{n}^B, {k})", run, check)


# -- workloads ---------------------------------------------------------------


def _partitions() -> list[list[Op]]:
    return [
        [cli_op("lambda --type b --n 6", check_lambda("b", 6))],
        [cli_op("lambda --type a --n 7", check_lambda("a", 7))],
        [cli_op("lambda --type b --n 6 --k 2", check_two_chains(6))],
        [cli_op("lambda --type b --n 5", check_lambda("b", 5))],
    ]


def _verify() -> list[list[Op]]:
    return [
        [cli_op("verify --claim all --n 7", check_verify([7]))],
        [cli_op("verify --claim all --n 2..6", check_verify([2, 3, 4, 5, 6]))],
        [is_lattice_op(5)],
        # the antichain calls that finish at the seed; the full set is the
        # antichains workload
        [antichain_op(4, 1)],
        [antichain_op(5, 1)],
    ]


def _export_roundtrip() -> list[list[Op]]:
    return [
        [
            cli_op("export --type b --n 7 --format json --layout shifted",
                   check_export_json(7), keep="export_json"),
            read_back_op(7),
        ],
        [cli_op("export --type b --n 7 --format dot --layout lowest", check_export_dot(7))],
        [cli_op("enumerate --type b --n 10 --format list --force", check_enumerate("b", 10))],
        [cli_op("enumerate --type a --n 10 --format list --force", check_enumerate("a", 10))],
    ]


def _antichains() -> list[list[Op]]:
    pairs = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1)]
    return [[antichain_op(n, k)] for n, k in pairs]


WORKLOADS: dict[str, Callable[[], list[list[Op]]]] = {
    "partitions": _partitions,
    "verify": _verify,
    "export_roundtrip": _export_roundtrip,
    "antichains": _antichains,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    groups = WORKLOADS[workload]()
    random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group]
