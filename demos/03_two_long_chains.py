"""The two explicit extremal chains and the matching antichain partition.

The longest chain of T_n^B has n^2 + 1 elements, and for n >= 4 the best a
second disjoint chain can add is n^2 - 4.  Both bounds are constructive:
two concrete chains achieve the total, and a partition into n^2 + 1
antichains with five singletons shows nothing larger is possible.
"""

from tamari import (
    antichain_partition,
    first_chain,
    format_vector,
    second_chain,
    tamari_poset,
    verify_disjoint,
    verify_lambda2,
)

n = 4
print(f"== the two chains at n={n} ==")
fc = first_chain(n)
print(f"  first chain ({len(fc)} elements), each position raised n times, last position first:")
print("   ", ", ".join(format_vector(v) for v in fc))
sc = second_chain(n)
print(f"  second chain ({len(sc)} elements), raised in right-to-left sweeps:")
print("   ", ", ".join(format_vector(v) for v in sc))

# The second chain is six shorter; prepending the unleveled (0,...,0,1,0)
# brings the gap down to the five the bound allows.
scp = second_chain(n, with_prefix=True)
print(f"  with the prefix {format_vector(scp[0])} it grows to {len(scp)} elements")
print("  disjoint?", verify_disjoint(fc, scp).status)

# The upper bound: place every element at its lowest level, then shift all
# unleveled elements up one.  Every fiber stays an antichain and the fiber
# count is exactly n^2 + 1, five of them singletons.
print(f"\n== antichain partition at n={n} ==")
p = tamari_poset("b", n)
fibers = antichain_partition(n).fibers()
print(f"  {len(fibers)} antichain fibers; sizes by level:")
for level, members in fibers.items():
    names = ", ".join(format_vector(p.labels[i]) for i in members)
    marker = "  <- singleton" if len(members) == 1 else ""
    print(f"    level {level:2d} ({len(members):2d}): {names}{marker}")

# Sum min(|fiber|, 2) over the fibers: 5 * 1 + (n^2 - 4) * 2 = 2 n^2 - 3,
# which is exactly what the two chains collect.
bound = sum(min(len(m), 2) for m in fibers.values())
print(f"  two-chain bound from the fibers: {bound} = {len(fc)} + {len(scp)}")

# The machine check proves thm1 from exactly this certificate (every fiber
# an antichain, chain validity, disjointness, both bounds reached), with no
# flow run, for any n in range.
for n in (4, 5, 6):
    report = verify_lambda2(n)
    print(f"\n  verify thm1 at n={n}: {report.status}, lambda[:2] = {report.data['lambda']}")
