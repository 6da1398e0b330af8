"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import subprocess
import sys
from collections import Counter
from math import comb

import pytest

from conftest import random_poset
from tamari import (
    INF,
    brute_force_type_b,
    chain_union_sizes,
    enumerate_type_a,
    enumerate_type_b,
    entry_sum,
    first_chain,
    gk_partition,
    is_isomorphic,
    is_type_b,
    leq_componentwise,
    oracle_chain_union,
    oracle_max_antichain,
    second_chain,
    shifted_level_map,
    tamari_poset,
)

EXPECTED_TYPE_B_COUNTS = {1: 2, 2: 6, 3: 20, 4: 70, 5: 252}
EXPECTED_CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}

CORPUS_SEED = 20260810
CORPUS_SIZE = 200


def report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def union_sizes():
    """Flow-engine maximum 1- and 2-chain union sizes of T_n^B, n = 2..6."""
    return {n: chain_union_sizes(tamari_poset("b", n), 2) for n in range(2, 7)}


def test_criterion_01_enumeration_counts():
    for n in range(1, 6):
        oracle = len(brute_force_type_b(n))
        assert oracle == EXPECTED_TYPE_B_COUNTS[n]
        assert len(enumerate_type_b(n)) == oracle
        assert oracle == comb(2 * n, n)
        assert len(enumerate_type_a(n)) == EXPECTED_CATALAN[n]
    report(1, "type B counts 2,6,20,70,252 match the brute-force oracle; "
              "type A counts are Catalan 1,2,5,14,42")


def test_criterion_02_lambda1(union_sizes):
    for n in range(2, 7):
        assert union_sizes[n][0] == n * n + 1, f"lambda_1 mismatch at n={n}"
    report(2, "flow engine gives lambda_1 = n^2 + 1 for n = 2..6")


def test_criterion_03_lambda2_and_chains(union_sizes):
    for n in (4, 5, 6):
        lam2 = union_sizes[n][1] - union_sizes[n][0]
        assert lam2 == n * n - 4, f"lambda_2 mismatch at n={n}"
        fc = first_chain(n)
        sc = second_chain(n, with_prefix=True)
        assert len(fc) == n * n + 1
        assert len(sc) == n * n - 4
        assert not (set(fc) & set(sc))
        for chain in (fc, sc):
            assert all(is_type_b(v) for v in chain)
            assert all(
                a != b and leq_componentwise(a, b) for a, b in zip(chain, chain[1:])
            )
        assert union_sizes[n][1] == len(fc) + len(sc)
    report(3, "lambda_2 = n^2 - 4 for n = 4,5,6, achieved by the explicit chains")


def test_criterion_04_golden_chains():
    golden_first = [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 0, INF),
        (0, 0, 1, INF), (0, 0, 2, INF), (0, 0, 3, INF), (0, 0, INF, INF),
        (0, 1, INF, INF), (0, 2, INF, INF), (0, 3, INF, INF), (0, INF, INF, INF),
        (1, INF, INF, INF), (2, INF, INF, INF), (3, INF, INF, INF),
        (INF, INF, INF, INF),
    ]
    golden_second = [
        (0, 0, 1, 2), (0, 0, 1, 3), (0, 0, 2, 3), (0, 1, 2, 3), (0, 1, 2, INF),
        (0, 1, 3, INF), (0, 2, 3, INF), (1, 2, 3, INF), (1, 2, INF, INF),
        (1, 3, INF, INF), (2, 3, INF, INF),
    ]
    assert first_chain(4) == golden_first
    assert second_chain(4) == golden_second
    report(4, "first_chain(4) and second_chain(4) match the published "
              "17- and 11-element listings verbatim")


def test_criterion_05_level_sums():
    for n in range(2, 6):
        p = tamari_poset("b", n)
        low = p.level_map("lowest").levels
        members = set(p.leveled_elements())
        for i, label in enumerate(p.labels):
            if i in members:
                assert low[i] == entry_sum(label), (n, label)
            else:
                assert low[i] <= entry_sum(label), (n, label)
    report(5, "for n = 2..5 leveled elements sit exactly at their entry sum, "
              "unleveled ones at or below it")


def test_criterion_06_antichain_partition():
    for n in (4, 5):
        p = tamari_poset("b", n)
        fibers = shifted_level_map(p).fibers()
        assert len(fibers) == n * n + 1
        singles = {lv: members[0] for lv, members in fibers.items() if len(members) == 1}
        assert len(singles) == 5
        top = n * n
        assert p.labels[singles[0]] == (0,) * n
        assert p.labels[singles[1]] == (0,) * (n - 1) + (1,)
        assert p.labels[singles[top - 2]] == (n - 2,) + (INF,) * (n - 1)
        assert p.labels[singles[top - 1]] == (n - 1,) + (INF,) * (n - 1)
        assert p.labels[singles[top]] == (INF,) * n
        for members in fibers.values():
            for a in members:
                for b in members:
                    assert a == b or not p.leq(a, b)
    report(6, "shifted levels partition T_4^B and T_5^B into n^2 + 1 antichains "
              "with exactly the five named singleton fibers")


def test_criterion_07_leveled_structure():
    p4 = tamari_poset("b", 4)
    members = {p4.labels[i] for i in p4.leveled_elements()}
    assert len(members) == 28
    assert members == set(first_chain(4)) | set(second_chain(4))
    p5 = tamari_poset("b", 5)
    low = p5.level_map("lowest")
    sizes = list(Counter(low[m] for m in p5.leveled_elements()).values())
    assert sizes.count(1) == 6 and sizes.count(2) == 4
    report(7, "T_4^B has exactly the 28 leveled elements of the two chains; "
              "T_5^B leveled levels show six singletons and four pairs")


def test_criterion_08_duality():
    for n in (3, 4, 5):
        p = tamari_poset("b", n)
        assert not is_isomorphic(p, p.dual()), f"T_{n}^B claimed self-dual"
    for n in (2, 3, 4, 5):
        p = tamari_poset("b", n)
        sub = p.induced(p.leveled_elements())
        assert is_isomorphic(sub, sub.dual()), f"leveled T_{n}^B not self-dual"
    report(8, "T_n^B is not self-dual for n = 3,4,5 while its leveled subposet "
              "is self-dual for n = 2..5")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(CORPUS_SEED)
    corpus = [random_poset(rng, rng.randint(1, 8), rng.choice([0.2, 0.35, 0.5]))
              for _ in range(CORPUS_SIZE)]
    corpus.append(tamari_poset("b", 2))
    corpus.append(tamari_poset("b", 3))
    for p in corpus:
        sizes = chain_union_sizes(p, 3)
        for k in (1, 2, 3):
            assert sizes[k - 1] == oracle_chain_union(p, k)
        assert gk_partition(p).conjugate()[0] == oracle_max_antichain(p)
    report(9, f"flow answers match exhaustive search (k = 1..3, antichains k = 1) "
              f"on {CORPUS_SIZE} seeded random posets plus T_2^B and T_3^B")


DETERMINISM_COMMANDS = [
    ("enumerate", "--type", "b", "--n", "2", "--format", "list"),
    ("export", "--type", "b", "--n", "4", "--format", "json"),
    ("enumerate", "--type", "a", "--n", "3", "--format", "count"),
    ("lambda", "--type", "b", "--n", "3"),
    ("lambda", "--type", "b", "--n", "4", "--k", "2"),
    ("lambda", "--type", "b", "--n", "6", "--k", "2"),
    ("verify", "--claim", "all", "--n", "4"),
    ("verify", "--claim", "thm1", "--n", "3..5"),
    ("export", "--type", "b", "--n", "3", "--format", "dot", "--layout", "shifted"),
    ("export", "--type", "b", "--n", "4", "--format", "json", "--layout", "lowest"),
    ("export", "--type", "a", "--n", "4", "--format", "dot"),
]


def test_criterion_10_cli_determinism():
    for command in DETERMINISM_COMMANDS:
        first = subprocess.run(
            [sys.executable, "-m", "tamari", *command], capture_output=True, timeout=300
        )
        second = subprocess.run(
            [sys.executable, "-m", "tamari", *command], capture_output=True, timeout=300
        )
        assert first.returncode == second.returncode, command
        assert first.stdout == second.stdout, command
        assert first.stderr == second.stderr, command
        assert first.stdout, command  # every command actually printed something
    report(10, f"{len(DETERMINISM_COMMANDS)} CLI command lines produced "
               "byte-identical output across repeated runs")
