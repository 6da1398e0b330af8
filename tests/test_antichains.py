"""The antichain side read off the chain flow's potentials: families on
Tamari posets beyond the reach of any search, a width oracle independent of
the flow, and the dependency footprint."""

import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from conftest import check_antichain_family, random_poset
from tamari import Poset, gk_partition, max_antichain_union, tamari_poset

SRC = Path(__file__).resolve().parents[1] / "src"

# Sums of the first k parts of the conjugate of lambda(T_n^B), k = 1, 2, 3.
TAMARI_B_TOTALS = {4: (12, 22, 30), 5: (32, 60, 86)}


@pytest.mark.parametrize("n", sorted(TAMARI_B_TOTALS))
def test_tamari_b_antichain_families(n):
    p = tamari_poset("b", n)
    for k, total in enumerate(TAMARI_B_TOTALS[n], start=1):
        fam = max_antichain_union(p, k)
        check_antichain_family(p, fam)
        assert len(fam.antichains) == k
        assert fam.total == total


def _check_every_k(p: Poset) -> None:
    """Families for k = 1 .. lambda_1, against the conjugate partition."""
    conj = gk_partition(p).conjugate()
    for k in range(1, len(conj) + 1):
        fam = max_antichain_union(p, k)
        check_antichain_family(p, fam)
        assert len(fam.antichains) == k
        assert fam.total == sum(conj[:k])


@pytest.mark.parametrize("n", sorted(TAMARI_B_TOTALS))
def test_tamari_b_antichain_families_at_every_k(n):
    _check_every_k(tamari_poset("b", n))


def test_antichain_families_at_every_k_on_random_posets():
    rng = random.Random(2718)
    for _ in range(30):
        _check_every_k(random_poset(rng, rng.randint(5, 40), rng.choice((0.05, 0.1, 0.2, 0.35))))


def test_antichain_families_when_every_gain_exceeds_k():
    """Chains of 3 and 5 have parts (5, 3): for k < 3 every element is
    collected while the gain still exceeds k, and the dual comes from one
    more phase that sends nothing."""
    p = Poset.from_covers(list(range(8)), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
    assert gk_partition(p).parts == (5, 3)
    _check_every_k(p)


def _dilworth_width(p: Poset) -> int:
    """n minus a maximum matching on the strict relation (Dilworth via Koenig)."""
    g = nx.Graph()
    left = [("l", u) for u in range(p.n)]
    g.add_nodes_from(left)
    g.add_nodes_from(("r", v) for v in range(p.n))
    g.add_edges_from(
        (("l", u), ("r", v)) for u in range(p.n) for v in range(p.n) if u != v and p.leq(u, v)
    )
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
    return p.n - len(matching) // 2


def test_width_matches_dilworth_matching_on_random_posets():
    rng = random.Random(314)
    for _ in range(12):
        p = random_poset(rng, rng.randint(25, 60), edge_prob=rng.choice((0.05, 0.1, 0.2)))
        fam = max_antichain_union(p, 1)
        check_antichain_family(p, fam)
        assert fam.total == _dilworth_width(p)
        conj = gk_partition(p).conjugate()
        for k in (2, 3):
            fam_k = max_antichain_union(p, k)
            check_antichain_family(p, fam_k)
            assert len(fam_k.antichains) == k
            assert fam_k.total == sum(conj[:k])


@pytest.mark.parametrize("n", [4, 5])
def test_width_matches_dilworth_matching_on_tamari_b(n):
    p = tamari_poset("b", n)
    assert max_antichain_union(p, 1).total == _dilworth_width(p)


def test_library_runs_without_scipy():
    code = (
        "import sys\n"
        "from tamari import max_antichain_union, tamari_poset, verify_claims\n"
        "max_antichain_union(tamari_poset('b', 4), 2)\n"
        "verify_claims('all', [4])\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
