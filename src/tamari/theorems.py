"""Explicit extremal chains in T_n^B and machine checks of the claims registry.

Both chains are written down from their raise orders, one entry raised per
step, with no search and no poset, so the poset cap does not bound them.

The claims read three views of the levels: the lowest and shifted level
maps and the leveled elements, those on a maximum chain
(:meth:`Poset.leveled_elements`).

Claim identifiers (these are the tokens the CLI accepts):

* ``lemma1``  - every leveled element sits exactly at its entry-sum level,
  every unleveled element at or below it.
* ``thm1``    - the top two parts of the chain partition of T_n^B are
  n^2 + 1 and n^2 - 4 for n >= 4.  The proof is a certificate checked on
  the order rows: the shifted level map partitions T_n^B into antichains,
  which bound a chain by their number and two disjoint chains by
  sum(min(2, |fiber|)) (Mirsky 1971, Greene 1976), and the two explicit
  chains, checked disjoint, reach both bounds.
* ``remarks`` - T_n^B is not self-dual (n >= 3) while its leveled subposet
  is, and at n = 5 the leveled level sizes show six 1s and four 2s.  The
  whole lattice is told from its dual by the isomorphism search; the
  leveled subposet's self-duality is certified by the explicit map
  :func:`dual_vector`, an anti-automorphism of the componentwise order that
  is checked to send the leveled vectors onto themselves, with no search
  and no induced order.

Every verifier returns a :class:`VerificationReport`; a refutation always
carries a witness and a verification carries its certificate data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .elements import (
    INF,
    Vector,
    format_vector,
    is_type_b,
    leq_componentwise,
)
from .gk import chain_union_sizes
from .lattices import tamari_poset
# is_lattice lives with the order store and stays importable from here
from .poset import LevelAssignment, Poset, find_isomorphism, is_lattice  # noqa: F401

VERIFIED = "verified"
REFUTED = "refuted"
SKIPPED = "skipped"


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    n: int
    status: str
    witness: object = None
    data: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.status not in (VERIFIED, REFUTED, SKIPPED):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == REFUTED and self.witness is None:
            raise ValueError("a refutation must carry a witness")


# -- the two extremal chains ---------------------------------------------------


def _raised(start: Vector, positions: Iterable[int]) -> list[Vector]:
    """The chain from ``start`` that raises one entry per step, at each of
    ``positions`` in turn: x -> x + 1, and n - 1 -> inf."""
    n = len(start)
    cur = list(start)
    out = [start]
    for pos in positions:
        cur[pos] = INF if cur[pos] == n - 1 else cur[pos] + 1
        out.append(tuple(cur))
    return out


def first_chain(n: int) -> list[Vector]:
    """The maximum chain from (0,...,0) to (inf,...,inf), n^2 + 1 elements.

    It raises position n-1 n times (0, 1, ..., n-1, inf), then position n-2
    n times, and so on down to position 0: n^2 steps.
    """
    if n < 2:
        raise ValueError("first_chain needs n >= 2")
    return _raised((0,) * n, [pos for pos in range(n - 1, -1, -1) for _ in range(n)])


def second_chain(n: int, with_prefix: bool = False) -> list[Vector]:
    """The disjoint companion chain from (0,...,0,1,2) to (n-2,n-1,inf,...,inf).

    It raises along right-to-left sweeps: first positions n-1 down to
    ``low`` for ``low`` = n-3, n-4, ..., 0, then positions ``high`` down to
    0 for ``high`` = n-2, n-3, ..., 2.  That is n^2 - 6 steps, or n^2 - 5
    elements; with ``with_prefix`` the unleveled element (0,...,0,1,0) is
    prepended, for n^2 - 4 elements total.
    """
    if n < 4:
        raise ValueError("second_chain needs n >= 4")
    sweeps = [range(n - 1, low - 1, -1) for low in range(n - 3, -1, -1)]
    sweeps += [range(high, -1, -1) for high in range(n - 2, 1, -1)]
    out = _raised((0,) * (n - 2) + (1, 2), [pos for sweep in sweeps for pos in sweep])
    if with_prefix:
        out.insert(0, (0,) * (n - 2) + (1, 0))
    return out


# -- level assignments ----------------------------------------------------------


def shifted_level_map(p: Poset) -> LevelAssignment:
    """Lowest levels with every unleveled element raised by one.

    The fibers are antichains for any finite poset: an unleveled element one
    level below a leveled one would itself lie on a maximum chain.  The
    antichain property is still checked outright, since the claim registry
    leans on it; a failure would be an internal contradiction.
    """
    assignment = p.level_map("shifted")
    bad = p.first_comparable_in_parts(assignment.fibers().values())
    if bad is not None:
        raise RuntimeError(
            f"shifted fiber is not an antichain: {p.labels[bad[0]]!r} "
            f"<= {p.labels[bad[1]]!r}"
        )
    return assignment


# -- claim verifiers -------------------------------------------------------------


def _entry_sums(vectors: Sequence[Vector], n: int) -> list[int]:
    """:func:`entry_sum` of each n-vector, each entry looked up in one value
    table (x -> x, inf -> n)."""
    value = {**{x: x for x in range(n)}, INF: n}.__getitem__
    return [sum(map(value, v)) for v in vectors]


def verify_level_sums(n: int) -> VerificationReport:
    """Claim ``lemma1``: lowest level == entry sum on leveled elements,
    <= entry sum everywhere else (inf counted as n)."""
    if n < 2:
        raise ValueError("verify_level_sums needs n >= 2")
    p = tamari_poset("b", n)
    low = p.level_map("lowest").levels
    members = set(p.leveled_elements())
    for i, (lv, s) in enumerate(zip(low, _entry_sums(p.labels, n))):
        if lv > s or (lv != s and i in members):
            witness = {
                "element": format_vector(p.labels[i]),
                "level": lv,
                "entry_sum": s,
                "leveled": i in members,
            }
            return VerificationReport("lemma1", n, REFUTED, witness=witness)
    return VerificationReport(
        "lemma1", n, VERIFIED, data={"elements": p.n, "leveled": len(members)}
    )


def _chain_steps_ok(chain: Sequence[Vector]) -> bool:
    return all(
        a != b and leq_componentwise(a, b) for a, b in zip(chain, chain[1:])
    )


def verify_lambda2(n: int) -> VerificationReport:
    """Claim ``thm1``: the first two chain-partition parts of T_n^B.

    For n >= 4 the parts are proven by a certificate, with no flow run:

    * the fibers of the shifted level map partition T_n^B (each element has
      one level), and each is checked to be an antichain of the order rows;
    * a chain meets an antichain at most once, so lambda_1 <= the number of
      fibers (Mirsky), and a union of two chains meets a fiber A in at most
      min(2, |A|) elements, so lambda_1 + lambda_2 <= sum(min(2, |A|))
      (Greene);
    * the two explicit chains consist of valid elements, go strictly up
      componentwise, are disjoint and reach both bounds, so both bounds are
      equalities.

    The parts read off the bounds must be (n^2 + 1, n^2 - 4).  The report
    carries the chains, the fiber sizes in level order and the labels of
    the singleton fibers; a refutation lists every failed check.  For
    n = 2, 3 the hypothesis is not met, so the parts are computed by the flow
    engine and reported, and nothing is asserted against them.
    """
    if n < 2:
        raise ValueError("verify_lambda2 needs n >= 2")
    p = tamari_poset("b", n)
    if n < 4:
        sizes = chain_union_sizes(p, 2)
        return VerificationReport(
            "thm1", n, SKIPPED, data={"lambda": [sizes[0], sizes[1] - sizes[0]]}
        )

    problems: list[str] = []
    assignment = p.level_map("shifted")
    fibers = assignment.fibers()
    bad = p.first_comparable_in_parts(fibers.values())
    if bad is not None:
        a, b = (format_vector(p.labels[i]) for i in bad)
        problems.append(f"fiber {assignment[bad[0]]} is not an antichain: {a} <= {b}")
    bound1 = len(fibers)
    bound2 = sum(min(2, len(members)) for members in fibers.values())

    fc = first_chain(n)
    sc = second_chain(n, with_prefix=True)
    for name, chain in (("first", fc), ("second", sc)):
        if not all(is_type_b(v) for v in chain):
            problems.append(f"{name} chain contains an invalid element")
        if not _chain_steps_ok(chain):
            problems.append(f"{name} chain is not strictly increasing")
    if set(fc) & set(sc):
        problems.append("the two chains intersect")
    if len(fc) != bound1:
        problems.append(f"first chain has {len(fc)} elements, but there are {bound1} fibers")
    if len(fc) + len(sc) != bound2:
        problems.append(
            f"chains total {len(fc) + len(sc)}, but the fibers bound two chains by {bound2}"
        )
    lam = [bound1, bound2 - bound1]
    if lam[0] != n * n + 1:
        problems.append(f"lambda_1 = {lam[0]}, expected {n * n + 1}")
    if lam[1] != n * n - 4:
        problems.append(f"lambda_2 = {lam[1]}, expected {n * n - 4}")

    certificate = {
        "fiber_sizes": [len(members) for members in fibers.values()],
        "singletons": [
            format_vector(p.labels[members[0]])
            for members in fibers.values()
            if len(members) == 1
        ],
    }
    if problems:
        return VerificationReport(
            "thm1", n, REFUTED, witness=problems,
            data={"bounds": [bound1, bound2], **certificate},
        )
    return VerificationReport(
        "thm1",
        n,
        VERIFIED,
        data={
            "lambda": lam,
            "first_chain": [format_vector(v) for v in fc],
            "second_chain": [format_vector(v) for v in sc],
            **certificate,
        },
    )


def dual_vector(v: Vector) -> Vector:
    """phi(v) = (c(v[n-1]), ..., c(v[0])), with c(0) = inf, c(inf) = 0 and
    c(x) = n - x otherwise: the entries complemented and their order
    reversed.

    c is an order-reversing involution of the chain 0 < 1 < ... < n-1 < inf,
    so phi is an involution of all n-vectors over it, and u <= v
    componentwise iff phi(v) <= phi(u).
    """
    n = len(v)
    return tuple(0 if e == INF else INF if e == 0 else n - e for e in reversed(v))


def verify_structure(n: int) -> list[VerificationReport]:
    """Claim ``remarks``: duality structure of T_n^B and its leveled core.

    That T_n^B is not self-dual is decided by :func:`find_isomorphism`
    against the dual, which its level-pair invariant settles for n >= 3.

    The leveled subposet's self-duality carries an explicit certificate:
    every member's image under :func:`dual_vector` must again be a member.
    phi is injective, so it then permutes the members, and as it reverses
    the componentwise order of all vectors, which is T_n^B's order,
    u <= v iff phi(v) <= phi(u) for any two members.  So phi is an
    isomorphism of the leveled subposet onto its dual, whatever computed
    the member set, and no induced order is built or searched.  The report gives the member count and, for each
    member in ascending index order, the position of its image; a
    refutation names the first member whose image is not leveled.
    """
    if n < 2:
        raise ValueError("verify_structure needs n >= 2")
    p = tamari_poset("b", n)
    iso = find_isomorphism(p, p.dual())
    if iso is None or n == 2:
        # the 6-element T_2^B happens to be self-dual; reported, not asserted
        status = SKIPPED if n == 2 else VERIFIED
        duality = VerificationReport(
            "remarks.self_duality", n, status, data={"self_dual": iso is not None}
        )
    else:
        duality = VerificationReport("remarks.self_duality", n, REFUTED, witness=iso)

    members = p.leveled_elements()
    vectors = [p.labels[m] for m in members]
    position = {v: i for i, v in enumerate(vectors)}
    images = [position.get(dual_vector(v)) for v in vectors]
    if None not in images:
        data = {"members": len(images), "isomorphism": images}
        core = VerificationReport("remarks.leveled_self_duality", n, VERIFIED, data=data)
    else:
        v = vectors[images.index(None)]
        witness = {"member": format_vector(v), "image": format_vector(dual_vector(v))}
        core = VerificationReport("remarks.leveled_self_duality", n, REFUTED, witness=witness)

    low = p.level_map("lowest").levels
    sizes = Counter(low[m] for m in members).values()
    histogram = dict(sorted(Counter(sizes).items()))
    if n == 5 and not (histogram.get(1) == 6 and histogram.get(2) == 4):
        level_sizes = VerificationReport(
            "remarks.leveled_level_sizes", n, REFUTED, witness=histogram
        )
    else:
        level_sizes = VerificationReport(
            "remarks.leveled_level_sizes",
            n,
            VERIFIED if n == 5 else SKIPPED,
            data={"size_histogram": histogram},
        )
    return [duality, core, level_sizes]


CLAIMS = ("lemma1", "thm1", "remarks")


def verify_claims(claim: str, ns: Sequence[int]) -> list[VerificationReport]:
    """Run one claim (or ``all``) over a range of n, in deterministic order."""
    wanted = CLAIMS if claim == "all" else (claim,)
    if any(c not in CLAIMS for c in wanted):
        raise ValueError(f"unknown claim {claim!r}")
    reports: list[VerificationReport] = []
    for n in ns:
        for c in wanted:
            if c == "lemma1":
                reports.append(verify_level_sums(n))
            elif c == "thm1":
                reports.append(verify_lambda2(n))
            else:
                reports.extend(verify_structure(n))
    return reports
