"""Level sums, duality, and diagram export.

Leveled elements (those on a maximum-length chain) sit exactly at the sum
of their entries with inf counted as n; the lattice as a whole is not
self-dual, but its leveled core is, by the explicit map ``dual_vector``
that complements each entry and reverses their order.  DOT export draws
the diagrams with one rank per level.
"""

from collections import Counter

from tamari import (
    INF,
    dual_vector,
    entry_sum,
    find_isomorphism,
    format_vector,
    is_lattice,
    shifted_level_map,
    tamari_poset,
    verify_level_sums,
)
from tamari.io import poset_to_dot

# Lemma check: levels against entry sums for all of T_4^B.
print("== level sums ==")
report = verify_level_sums(4)
print(f"  n=4: {report.status} over {report.data['elements']} elements,"
      f" {report.data['leveled']} of them leveled")
p = tamari_poset("b", 4)
low = p.level_map("lowest")
for v in [(0, 0, 1, 0), (0, 0, 3, INF), (INF,) * 4]:
    i = p.index(v)
    print(f"  {format_vector(v):14s} level {low[i]:2d}, entry sum {entry_sum(v):2d}")

# Duality: reversing the order gives a different poset (count covers of the
# bottom element versus its dual), yet the leveled subposet maps onto its
# own reversal.  The search finds such a map on the induced subposet ...
print("\n== duality ==")
for n in (3, 4, 5):
    p = tamari_poset("b", n)
    whole = find_isomorphism(p, p.dual())
    sub = p.induced(p.leveled_elements())
    core = find_isomorphism(sub, sub.dual())
    print(f"  n={n}: whole lattice self-dual: {whole is not None};"
          f" leveled core self-dual: {core is not None}")

# ... and it is the explicit map phi(v) = (c(v[n-1]), ..., c(v[0])) with
# c(0) = inf, c(inf) = 0 and c(x) = n - x, which reverses the componentwise
# order of all vectors.  It sends leveled elements to leveled elements:
p = tamari_poset("b", 4)
leveled = {p.labels[m] for m in p.leveled_elements()}
for v in [(0, 0, 0, 0), (0, 0, 1, 2), (0, 1, INF, INF), (1, 2, 3, INF)]:
    image = dual_vector(v)
    print(f"  phi{format_vector(v):16s} = {format_vector(image):16s}"
          f" leveled: {v in leveled} -> {image in leveled}")
print(f"  phi maps all {len(leveled)} leveled elements of T_4^B onto themselves:"
      f" {set(map(dual_vector, leveled)) == leveled}")

# At n=5 the leveled core's level sizes (six 1s, four 2s, the rest larger)
# show where a third long chain would have room.
p = tamari_poset("b", 5)
low = p.level_map("lowest")
sizes = Counter(low[m] for m in p.leveled_elements())
histogram = Counter(sizes.values())
print("  n=5 leveled level-size histogram:", dict(sorted(histogram.items())))

# The name "lattice" is earned: every pair has a meet and a join.
print("\n== lattice check ==")
for n in (2, 3, 4):
    print(f"  T_{n}^B is a lattice: {is_lattice(tamari_poset('b', n))}")

# DOT export, ranks grouped by the shifted level map (the same layout the
# antichain partition uses).  Feed this to `dot -Tpng` to render.
print("\n== DOT export of T_2^B ==")
p2 = tamari_poset("b", 2)
print(poset_to_dot(p2, name="tamari_b_2", levels=shifted_level_map(p2)))
