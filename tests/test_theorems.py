import itertools
import json
import random

import numpy as np
import pytest

import tamari.gk
import tamari.theorems
from conftest import random_poset
from tamari import (
    INF,
    REFUTED,
    SKIPPED,
    VERIFIED,
    Poset,
    VerificationReport,
    chain_union_sizes,
    dual_vector,
    entry_sum,
    enumerate_type_b,
    find_isomorphism,
    first_chain,
    format_vector,
    is_lattice,
    is_type_b,
    leq_componentwise,
    second_chain,
    shifted_level_map,
    tamari_poset,
    verify_claims,
    verify_lambda2,
    verify_level_sums,
    verify_structure,
)
from tamari.io import dumps_report
from tamari.poset import LevelAssignment
from tamari.theorems import _entry_sums
from test_flow import T8B_RECORDED

GOLDEN_FIRST_4 = [
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 0, INF),
    (0, 0, 1, INF), (0, 0, 2, INF), (0, 0, 3, INF), (0, 0, INF, INF),
    (0, 1, INF, INF), (0, 2, INF, INF), (0, 3, INF, INF), (0, INF, INF, INF),
    (1, INF, INF, INF), (2, INF, INF, INF), (3, INF, INF, INF),
    (INF, INF, INF, INF),
]

GOLDEN_SECOND_4 = [
    (0, 0, 1, 2), (0, 0, 1, 3), (0, 0, 2, 3), (0, 1, 2, 3), (0, 1, 2, INF),
    (0, 1, 3, INF), (0, 2, 3, INF), (1, 2, 3, INF), (1, 2, INF, INF),
    (1, 3, INF, INF), (2, 3, INF, INF),
]


# -- the chains ------------------------------------------------------------------


def test_first_chain_n2():
    assert first_chain(2) == [(0, 0), (0, 1), (0, INF), (1, INF), (INF, INF)]


def test_first_chain_n4_golden():
    assert first_chain(4) == GOLDEN_FIRST_4


def test_second_chain_n4_golden():
    assert second_chain(4) == GOLDEN_SECOND_4


def test_second_chain_prefix():
    chain = second_chain(4, with_prefix=True)
    assert chain[0] == (0, 0, 1, 0)
    assert chain[1:] == GOLDEN_SECOND_4
    assert len(chain) == 12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_first_chain_length(n):
    assert len(first_chain(n)) == n * n + 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_second_chain_lengths_and_endpoint(n):
    chain = second_chain(n)
    assert len(chain) == n * n - 5
    assert chain[0] == (0,) * (n - 2) + (1, 2)
    assert chain[-1] == (n - 2, n - 1) + (INF,) * (n - 2)
    assert len(second_chain(n, with_prefix=True)) == n * n - 4


def test_second_chain_n5_prefixed_length():
    assert len(second_chain(5, with_prefix=True)) == 21


def test_chain_bounds():
    with pytest.raises(ValueError):
        first_chain(1)
    with pytest.raises(ValueError):
        second_chain(3)


# n >= 8 is beyond the poset cap: the chains are written down without a poset
@pytest.mark.parametrize("n", range(2, 11))
def test_first_chain_elements_valid_and_increasing(n):
    tamari_poset.cache_clear()
    chain = first_chain(n)
    assert tamari_poset.cache_info().misses == 0
    assert len(chain) == n * n + 1
    assert all(is_type_b(v) for v in chain)
    for a, b in zip(chain, chain[1:]):
        assert leq_componentwise(a, b) and a != b
        assert entry_sum(b) == entry_sum(a) + 1
        assert sum(1 for x, y in zip(a, b) if x != y) == 1


@pytest.mark.parametrize("n", range(4, 11))
def test_second_chain_elements_valid_and_increasing(n):
    tamari_poset.cache_clear()
    chain = second_chain(n, with_prefix=True)
    assert tamari_poset.cache_info().misses == 0
    assert len(chain) == n * n - 4
    assert not set(chain) & set(first_chain(n))
    assert all(is_type_b(v) for v in chain)
    # the prefix step (0,...,0,1,0) -> (0,...,0,1,2) raises the last entry by two
    for step, (a, b) in enumerate(zip(chain, chain[1:])):
        assert leq_componentwise(a, b) and a != b
        assert entry_sum(b) == entry_sum(a) + (2 if step == 0 else 1)
        assert sum(1 for x, y in zip(a, b) if x != y) == 1


@pytest.mark.parametrize("n", [4, 5])
def test_chain_union_is_leveled_subposet(n):
    p = tamari_poset("b", n)
    union = set(first_chain(n)) | set(second_chain(n))
    members = {p.labels[i] for i in p.leveled_elements()}
    if n == 4:
        assert union == members
    else:
        assert union <= members  # strictly more leveled elements from n = 5 on


# -- disjointness (verify_lambda2 checks it; test_lambda2_refutes_overlapping_chains) --


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chains_disjoint(n):
    fc, sc = first_chain(n), second_chain(n, with_prefix=True)
    assert not set(fc) & set(sc)
    assert (len(set(fc)), len(set(sc))) == (n * n + 1, n * n - 4)


# -- antichain partition: the fibers of the shifted level map --------------------------


def _shifted_fibers(n):
    return shifted_level_map(tamari_poset("b", n)).fibers()


def test_antichain_partition_n4():
    p = tamari_poset("b", 4)
    fibers = _shifted_fibers(4)
    assert len(fibers) == 17
    assert [p.labels[i] for i in fibers[0]] == [(0, 0, 0, 0)]
    assert [p.labels[i] for i in fibers[1]] == [(0, 0, 0, 1)]
    assert [p.labels[i] for i in fibers[14]] == [(2, INF, INF, INF)]
    assert [p.labels[i] for i in fibers[15]] == [(3, INF, INF, INF)]
    assert [p.labels[i] for i in fibers[16]] == [(INF, INF, INF, INF)]


def test_antichain_partition_n5_singletons():
    fibers = _shifted_fibers(5)
    assert len(fibers) == 26
    assert sum(1 for members in fibers.values() if len(members) == 1) == 5


def test_antichain_partition_n2():
    fibers = _shifted_fibers(2)
    assert [len(m) for m in fibers.values()] == [1, 1, 2, 1, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shifted_fibers_are_antichains(n):
    p = tamari_poset("b", n)
    for members in _shifted_fibers(n).values():
        for a in members:
            for b in members:
                assert a == b or not p.leq(a, b)


# -- claim verifiers --------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_level_sums_verified(n):
    report = verify_level_sums(n)
    assert report.status == VERIFIED
    assert report.claim == "lemma1"


@pytest.mark.parametrize("n", range(2, 8))
def test_entry_sums_agree_with_entry_sum(n):
    labels = tamari_poset("b", n).labels
    assert _entry_sums(labels, n) == [entry_sum(v) for v in labels]


def test_level_sum_spot_checks():
    p = tamari_poset("b", 4)
    low = p.level_map("lowest")
    assert low[p.index((0, 0, 1, 0))] == 1 == entry_sum((0, 0, 1, 0))
    assert low[p.index((0, 0, 3, INF))] == 7 == entry_sum((0, 0, 3, INF))


@pytest.mark.parametrize("n", [4, 5])
def test_lambda2_verified(n):
    report = verify_lambda2(n)
    assert report.status == VERIFIED
    assert report.data["lambda"] == [n * n + 1, n * n - 4]
    assert len(report.data["first_chain"]) == n * n + 1
    assert len(report.data["second_chain"]) == n * n - 4


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_lambda2_certificate_agrees_with_the_flow(n):
    report = verify_lambda2(n)
    flow = chain_union_sizes(tamari_poset("b", n), 2)
    assert report.data["lambda"] == [flow[0], flow[1] - flow[0]]
    sizes = report.data["fiber_sizes"]
    assert len(sizes) == n * n + 1
    assert sum(sizes) == tamari_poset("b", n).n
    assert sum(min(2, s) for s in sizes) == 2 * n * n - 3
    assert report.data["singletons"] == [
        format_vector(v)
        for v in [(0,) * n, (0,) * (n - 1) + (1,), (n - 2,) + (INF,) * (n - 1),
                  (n - 1,) + (INF,) * (n - 1), (INF,) * n]
    ]


def test_shifted_fibers_of_t8b_bound_the_recorded_parts():
    # T_8^B is past the poset cap of tamari_poset, so build it directly
    p = Poset.from_vectors(enumerate_type_b(8))
    fibers = shifted_level_map(p).fibers()
    assert len(fibers) == 65 == T8B_RECORDED[0][0]
    assert sum(1 for members in fibers.values() if len(members) == 1) == 5
    assert sum(min(2, len(members)) for members in fibers.values()) == (
        T8B_RECORDED[0][0] + T8B_RECORDED[1][0]
    ) == 125


class _NoFlow:
    def __init__(self, *args, **kwargs):
        raise AssertionError("thm1 ran the flow")


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_lambda2_runs_no_flow(monkeypatch, n):
    monkeypatch.setattr(tamari.gk, "_ChainNetwork", _NoFlow)
    assert verify_lambda2(n).status == VERIFIED


# -- mutated inputs of the thm1 certificate -------------------------------------------


def _patch_levels(monkeypatch, edited, mutate):
    """Let ``mutate(p, levels)`` edit the level list of mode ``edited``."""
    level_map = Poset.level_map

    def patched(self, mode="lowest"):
        assignment = level_map(self, mode)
        if mode != edited:
            return assignment
        levels = list(assignment.levels)
        mutate(self, levels)
        return LevelAssignment(tuple(levels), mode)

    monkeypatch.setattr(Poset, "level_map", patched)


def _patch_shifted_levels(monkeypatch, mutate):
    """Let ``mutate(p, levels)`` edit the shifted level list verify_lambda2 reads."""
    _patch_levels(monkeypatch, "shifted", mutate)


def _first_comparable(p, members):
    for a in members:
        for b in members:
            if a != b and p.leq(a, b):
                return a, b
    return None


def test_lambda2_refutes_an_element_moved_to_a_comparable_fiber(monkeypatch):
    n = 4
    p = tamari_poset("b", n)
    levels = p.level_map("shifted").levels
    # a level-3 element below some level-4 element; both fibers keep >= 2
    # members, so the fiber count and sum(min(2, |fiber|)) do not change
    x = next(
        a for a in range(p.n) if levels[a] == 3
        and any(levels[b] == 4 and p.leq(a, b) for b in range(p.n))
    )

    def move(_, lv):
        lv[x] = 4

    _patch_shifted_levels(monkeypatch, move)
    report = verify_lambda2(n)
    assert report.status == REFUTED
    members = sorted([x] + [b for b in range(p.n) if levels[b] == 4])
    a, b = _first_comparable(p, members)
    assert x in (a, b)
    assert report.witness == [
        f"fiber 4 is not an antichain: {format_vector(p.labels[a])} "
        f"<= {format_vector(p.labels[b])}"
    ]


def test_lambda2_refutes_merged_fibers(monkeypatch):
    def merge(_, lv):
        lv[:] = [3 if level == 4 else level for level in lv]

    _patch_shifted_levels(monkeypatch, merge)
    report = verify_lambda2(4)
    assert report.status == REFUTED
    assert "first chain has 17 elements, but there are 16 fibers" in report.witness
    assert report.data["bounds"][0] == 16


@pytest.mark.parametrize("mutate", [
    lambda chain: chain[:3] + chain[2:3] + chain[4:],
    lambda chain: chain[:2] + [chain[3], chain[2]] + chain[4:],
], ids=["repeated_element", "step_down"])
def test_lambda2_refutes_a_non_increasing_chain_step(monkeypatch, mutate):
    second = tamari.theorems.second_chain
    monkeypatch.setattr(tamari.theorems, "second_chain",
                        lambda n, with_prefix=False: mutate(second(n, with_prefix)))
    report = verify_lambda2(4)
    assert report.status == REFUTED
    assert report.witness == ["second chain is not strictly increasing"]


def test_lambda2_refutes_overlapping_chains(monkeypatch):
    second = tamari.theorems.second_chain
    # (0,0,0,0) lies on the first chain and below (0,0,1,2), so only the
    # overlap is wrong
    monkeypatch.setattr(tamari.theorems, "second_chain",
                        lambda n, with_prefix=False: [(0,) * n] + second(n, with_prefix)[1:])
    report = verify_lambda2(4)
    assert report.status == REFUTED
    assert report.witness == ["the two chains intersect"]


def test_lambda2_refutes_an_invalid_chain_element(monkeypatch):
    second = tamari.theorems.second_chain
    # (0,0,1,1) breaks rule (i) but lies strictly below (0,0,1,2)
    monkeypatch.setattr(tamari.theorems, "second_chain",
                        lambda n, with_prefix=False: [(0, 0, 1, 1)] + second(n, with_prefix)[1:])
    report = verify_lambda2(4)
    assert report.status == REFUTED
    assert report.witness == ["second chain contains an invalid element"]


def test_lambda2_refutes_chains_short_of_the_two_chain_bound(monkeypatch):
    second = tamari.theorems.second_chain
    monkeypatch.setattr(tamari.theorems, "second_chain",
                        lambda n, with_prefix=False: second(n, with_prefix)[:-1])
    report = verify_lambda2(4)
    assert report.status == REFUTED
    assert report.witness == ["chains total 28, but the fibers bound two chains by 29"]


# -- refutations of lemma1 and remarks, and the level maps' internal checks ---------------


@pytest.mark.parametrize("leveled", [True, False])
def test_level_sums_refuted_report_carries_its_witness(monkeypatch, leveled):
    n = 4
    p = tamari_poset("b", n)
    members = set(p.leveled_elements())
    x = next(i for i in range(p.n) if (i in members) == leveled)
    # a leveled element must sit at its entry sum, any other at most there
    wrong = entry_sum(p.labels[x]) + 1

    def bump(_, lv):
        lv[x] = wrong

    _patch_levels(monkeypatch, "lowest", bump)
    report = verify_level_sums(n)
    assert report.status == REFUTED
    witness = {
        "element": format_vector(p.labels[x]),
        "level": wrong,
        "entry_sum": wrong - 1,
        "leveled": leveled,
    }
    assert report.witness == witness
    assert json.loads(dumps_report(report)) == {
        "claim": "lemma1", "n": n, "status": REFUTED, "witness": witness
    }


@pytest.mark.parametrize("leveled", [True, False])
def test_level_sums_below_the_entry_sum_refute_only_a_leveled_element(monkeypatch, leveled):
    n = 4
    p = tamari_poset("b", n)
    members, low = set(p.leveled_elements()), p.level_map("lowest")
    x = next(i for i in range(p.n) if (i in members) == leveled and low[i] > 0)

    def lower(_, lv):
        lv[x] -= 1

    _patch_levels(monkeypatch, "lowest", lower)
    report = verify_level_sums(n)
    if leveled:
        assert report.status == REFUTED
        assert report.witness["element"] == format_vector(p.labels[x])
        assert report.witness["leveled"] is True
    else:
        assert report.status == VERIFIED


def test_structure_refutes_a_self_dual_t_n_b(monkeypatch):
    n = 3
    size = tamari_poset("b", n).n
    real = tamari.theorems.find_isomorphism
    monkeypatch.setattr(tamari.theorems, "find_isomorphism",
                        lambda p, q: list(range(p.n)) if p.n == size else real(p, q))
    duality, core, _ = verify_structure(n)
    assert (duality.claim, duality.status) == ("remarks.self_duality", REFUTED)
    assert duality.witness == list(range(size))
    assert core.status == VERIFIED
    assert json.loads(dumps_report(duality))["witness"] == list(range(size))


def test_structure_refutes_a_leveled_core_with_no_isomorphism(monkeypatch):
    # drop one member whose image is another member: that member's preimage
    # is then the one member whose image left the set
    n = 4
    p = tamari_poset("b", n)
    members = p.leveled_elements()
    gone = next(m for m in members[len(members) // 3 :] if dual_vector(p.labels[m]) != p.labels[m])
    leveled_elements = Poset.leveled_elements
    monkeypatch.setattr(Poset, "leveled_elements",
                        lambda self: [m for m in leveled_elements(self) if m != gone])
    duality, core, _ = verify_structure(n)
    assert duality.status == VERIFIED and duality.data == {"self_dual": False}
    assert (core.claim, core.status) == ("remarks.leveled_self_duality", REFUTED)
    witness = {"member": format_vector(dual_vector(p.labels[gone])),
               "image": format_vector(p.labels[gone])}
    assert core.witness == witness
    assert core.data is None
    assert json.loads(dumps_report(core))["witness"] == witness


def test_structure_refutes_the_leveled_level_sizes_at_n5(monkeypatch):
    def flatten(_, lv):
        lv[:] = [0] * len(lv)

    _patch_levels(monkeypatch, "lowest", flatten)
    *_, sizes = verify_structure(5)
    assert (sizes.claim, sizes.status) == ("remarks.leveled_level_sizes", REFUTED)
    assert sizes.witness == {64: 1}  # all 64 members on one level
    assert json.loads(dumps_report(sizes))["witness"] == {"64": 1}


def test_shifted_level_map_rejects_a_comparable_fiber(monkeypatch):
    p = tamari_poset("b", 4)

    def flatten(_, lv):
        lv[:] = [0] * len(lv)

    _patch_shifted_levels(monkeypatch, flatten)
    a, b = p.first_comparable_pair(range(p.n))  # of the one fiber, which holds everything
    with pytest.raises(RuntimeError) as err:
        shifted_level_map(p)
    assert str(err.value) == f"shifted fiber is not an antichain: {p.labels[a]!r} <= {p.labels[b]!r}"


def test_antichain_partition_rejects_a_wrong_fiber_count(monkeypatch):
    n = 4

    def split(p, lv):
        # a member of the first fiber with two or more moves to a level of its
        # own: every fiber stays an antichain, but there is one fiber too many
        first = next(level for level in sorted(set(lv)) if lv.count(level) > 1)
        lv[lv.index(first)] = max(lv) + 1

    _patch_shifted_levels(monkeypatch, split)
    report = verify_lambda2(n)
    assert report.status == REFUTED
    assert f"first chain has {n * n + 1} elements, but there are {n * n + 2} fibers" in report.witness
    assert report.data["bounds"][0] == n * n + 2


def test_lambda2_skipped_below_hypothesis():
    report = verify_lambda2(3)
    assert report.status == SKIPPED
    assert report.data["lambda"][0] == 10
    assert isinstance(report.data["lambda"][1], int)


def test_structure_reports():
    by_claim = {r.claim: r for r in verify_structure(4)}
    assert by_claim["remarks.self_duality"].status == VERIFIED
    assert by_claim["remarks.leveled_self_duality"].status == VERIFIED
    assert by_claim["remarks.leveled_level_sizes"].status == SKIPPED

    by_claim = {r.claim: r for r in verify_structure(5)}
    assert by_claim["remarks.leveled_level_sizes"].status == VERIFIED

    by_claim = {r.claim: r for r in verify_structure(2)}
    assert by_claim["remarks.self_duality"].status == SKIPPED
    assert by_claim["remarks.self_duality"].data["self_dual"] is True
    assert by_claim["remarks.leveled_self_duality"].status == VERIFIED


def test_verify_claims_dispatch():
    reports = verify_claims("all", [4])
    assert [r.claim for r in reports] == [
        "lemma1",
        "thm1",
        "remarks.self_duality",
        "remarks.leveled_self_duality",
        "remarks.leveled_level_sizes",
    ]
    with pytest.raises(ValueError):
        verify_claims("lemma2", [4])


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("x", 2, "refuted")
    with pytest.raises(ValueError):
        VerificationReport("x", 2, "bogus")


# -- lattice diagnostic --------------------------------------------------------------------


def test_diamond_is_lattice(diamond_poset):
    assert is_lattice(diamond_poset)


def test_bare_antichain_is_not_lattice():
    p = Poset.from_predicate([0, 1], lambda a, b: a == b)
    assert not is_lattice(p)


def test_missing_join_detected():
    # two minimal elements under two maximal ones: bounds exist, none least
    p = Poset.from_covers(list("abcd"), [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not is_lattice(p)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tnb_is_lattice(n):
    assert is_lattice(tamari_poset("b", n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tna_is_lattice(n):
    assert is_lattice(tamari_poset("a", n))


def _pairwise_is_lattice(p):
    """Reference: the per-pair scan of the order matrix with a level map."""
    leq = p.leq_matrix
    geq = leq.T
    low = np.array(p.level_map("lowest").levels)
    for a in range(p.n):
        for b in range(a + 1, p.n):
            ub = leq[a] & leq[b]
            idx = np.nonzero(ub)[0]
            if idx.size == 0:
                return False
            cand = idx[low[idx] == low[idx].min()]
            if cand.size != 1 or (ub & ~leq[cand[0]]).any():
                return False
            lb = geq[a] & geq[b]
            idx = np.nonzero(lb)[0]
            if idx.size == 0:
                return False
            cand = idx[low[idx] == low[idx].max()]
            if cand.size != 1 or (lb & ~geq[cand[0]]).any():
                return False
    return True


def _with_bounds(p):
    """p with a new least and a new greatest element."""
    m = np.eye(p.n + 2, dtype=bool)
    m[1:-1, 1:-1] = p.leq_matrix
    m[0, :] = True
    m[:, -1] = True
    return Poset(list(range(p.n + 2)), m)


def test_is_lattice_agrees_with_pairwise_reference():
    rng = random.Random(2718)
    outcomes = []
    for _ in range(400):
        p = random_poset(rng, rng.randint(1, 12), rng.choice((0.1, 0.2, 0.35, 0.5)))
        for q in (p, _with_bounds(p)):
            perm = rng.sample(range(q.n), q.n)  # index order need not extend the order
            q = Poset(perm, q.leq_matrix[np.ix_(perm, perm)])
            expected = _pairwise_is_lattice(q)
            assert is_lattice(q) == expected
            outcomes.append(expected)
    assert 0 < sum(outcomes) < len(outcomes)


def test_is_lattice_of_a_dual_agrees_with_pairwise_reference():
    # the posets above, dualized: each is read along its source's extension reversed
    rng = random.Random(2718)
    outcomes = []
    for _ in range(400):
        p = random_poset(rng, rng.randint(1, 12), rng.choice((0.1, 0.2, 0.35, 0.5)))
        for q in (p, _with_bounds(p)):
            perm = rng.sample(range(q.n), q.n)
            d = Poset(perm, q.leq_matrix[np.ix_(perm, perm)]).dual()
            expected = _pairwise_is_lattice(d)
            assert is_lattice(d) == expected
            outcomes.append(expected)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("kind", ["a", "b"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tamari_duals_are_lattices(kind, n):
    # a dual's extension is reversed index order, so its rows are renumbered
    d = tamari_poset(kind, n).dual()
    assert is_lattice(d)


@pytest.mark.parametrize("kind,n", [("b", 6), ("a", 7)])
def test_larger_tamari_posets_are_lattices(kind, n):
    assert is_lattice(tamari_poset(kind, n))


def test_verify_claims_induces_no_subposet(monkeypatch):
    # the leveled remark maps vectors; only T_n^B against its dual is searched
    induced, searched = [], []
    search = tamari.theorems.find_isomorphism
    monkeypatch.setattr(Poset, "induced", lambda self, indices: induced.append(self.n))
    monkeypatch.setattr(tamari.theorems, "find_isomorphism",
                        lambda p, q: searched.append((p, q)) or search(p, q))
    tamari_poset.cache_clear()
    try:
        for n in range(2, 8):
            searched.clear()
            reports = verify_claims("all", [n])
            assert all(r.status != REFUTED for r in reports)
            p = tamari_poset("b", n)
            assert [(a is p, b.n, b.covers) for a, b in searched] == [
                (True, p.n, sorted((v, u) for u, v in p.covers))
            ]
        assert induced == []
    finally:
        tamari_poset.cache_clear()


# -- the leveled remark's certificate: the explicit anti-automorphism --------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_vector_is_an_order_reversing_involution(n):
    chain = [*range(n), INF]
    vectors = list(itertools.product(chain, repeat=n))
    images = [dual_vector(v) for v in vectors]
    assert set(images) == set(vectors)
    assert all(dual_vector(w) == v for v, w in zip(vectors, images))
    for u, fu in zip(vectors, images):
        for v, fv in zip(vectors, images):
            assert leq_componentwise(u, v) == leq_componentwise(fv, fu)


def test_dual_vector_reverses_the_order_of_t4b():
    p = tamari_poset("b", 4)
    images = [dual_vector(v) for v in p.labels]
    for i, fi in enumerate(images):
        assert dual_vector(fi) == p.labels[i]
        for j, fj in enumerate(images):
            assert p.leq(i, j) == leq_componentwise(fj, fi)


@pytest.mark.parametrize("n", range(2, 8))
def test_leveled_certificate_is_the_search_answer(n):
    # the search stays as the reference: it finds the same map, and the map
    # sends the induced order's covers onto its dual's
    p = tamari_poset("b", n)
    _, core, _ = verify_structure(n)
    sub = p.induced(p.leveled_elements())
    iso = core.data["isomorphism"]
    assert core.status == VERIFIED and core.data["members"] == sub.n
    assert iso == find_isomorphism(sub, sub.dual())
    assert sorted(iso) == list(range(sub.n))
    assert sorted((iso[u], iso[v]) for u, v in sub.covers) == sub.dual().covers
    assert all(dual_vector(sub.labels[i]) == sub.labels[iso[i]] for i in range(sub.n))


def test_dual_vector_maps_the_leveled_set_of_t8b_onto_itself(monkeypatch):
    # past the poset cap, built directly from the enumerated vectors
    p = Poset.from_vectors(enumerate_type_b(8))
    leveled = {p.labels[m] for m in p.leveled_elements()}
    assert len(leveled) == 704 == (8 + 3) * 2 ** (8 - 2)
    assert {dual_vector(v) for v in leveled} == leveled
    monkeypatch.setattr(tamari.theorems, "tamari_poset", lambda kind, m: p)
    duality, core, _ = verify_structure(8)
    assert duality.status == VERIFIED and duality.data == {"self_dual": False}
    assert core.status == VERIFIED and core.data["members"] == 704
