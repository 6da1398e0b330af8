"""Greene-Kleitman chain partitions of the type B lattices.

For every poset there is a partition lambda(P) whose first k parts sum to
the largest number of elements coverable by k chains, and whose conjugate
does the same for antichains.  The engine computes it with a profit flow
sent in phases, each phase adding every chain of the same marginal gain.
"""

from tamari import (
    conjugate_partition,
    format_vector,
    gk_partition,
    max_antichain_union,
    max_chain_union,
    oracle_chain_union,
    tamari_poset,
)

print("== full partitions of T_n^B ==")
for n in range(2, 6):
    p = tamari_poset("b", n)
    lam = gk_partition(p).parts
    print(f"  n={n}: lambda = {lam}")
    print(f"        conjugate = {conjugate_partition(lam)}")

# The first two parts follow n^2 + 1 and n^2 - 4 (the latter from n = 4 on);
# the tail is computed, not asserted, and lambda_2 - lambda_3 hints at where
# a third long chain begins to emerge.
print("\n== the first two parts ==")
print("  n  lambda_1  n^2+1  lambda_2  n^2-4")
for n in range(4, 7):
    lam = gk_partition(tamari_poset("b", n)).parts
    print(f"  {n}  {lam[0]:8d}  {n * n + 1:5d}  {lam[1]:8d}  {n * n - 4:5d}")

# An explicit maximum family: two disjoint chains covering 29 of the 70
# elements of T_4^B.
print("\n== a maximum 2-chain family in T_4^B ==")
p4 = tamari_poset("b", 4)
family = max_chain_union(p4, 2)
print(f"  total elements: {family.total}")
for i, chain in enumerate(family.chains, start=1):
    print(f"  chain {i} ({len(chain)}):", ", ".join(format_vector(p4.labels[e]) for e in chain))

# The flow answers agree with exhaustive search wherever the search is
# feasible; T_2^B is small enough to check all of k = 1, 2, 3.
print("\n== flow vs exhaustive oracle on T_2^B ==")
p2 = tamari_poset("b", 2)
for k in (1, 2, 3):
    flow_total = max_chain_union(p2, k).total
    print(f"  k={k}: flow {flow_total}, oracle {oracle_chain_union(p2, k)}")

# The conjugate side: a maximum antichain of T_4^B has 12 elements, one per
# part of lambda.
print("\n== antichains ==")
fam = max_antichain_union(p4, 1)
print(f"  width of T_4^B: {fam.total}")
print("  a maximum antichain:", ", ".join(format_vector(p4.labels[e]) for e in fam.antichains[0]))
