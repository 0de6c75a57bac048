"""Directed quotient multigraphs and the walk correspondence.

    python3 demos/02_quotients_and_correspondence.py

Covers: building quotients from sublattice and tree actions, the orbit
structure, symmetry and representative-independence checks, type
classification, the walk-count bijection, and a quotient that turns out
to be another catalog graph in disguise.
"""

from sawkit import (balls_isomorphic, build_quotient, catalog,
                    check_representative_independence, check_symmetry,
                    classify_type, count_directed_saws, count_directed_walks,
                    count_saws, count_walks, derive_undirected,
                    sublattice_action, tree_action)

# ---------------------------------------------------------------------------
# The line modulo 3: three orbits in a directed triangle.
# ---------------------------------------------------------------------------
z1 = catalog("zd(1)")
q3 = build_quotient(z1, sublattice_action([[3]]))
print("=== the line modulo 3 ===")
print(q3.to_text())
rep = classify_type(q3)
print(f"type {rep.type_}, shortest orbit-connecting walk has "
      f"{rep.length} steps: {rep.witness}")
print("symmetric multiplicity table:", check_symmetry(q3))

# Directed SAWs die once the finitely many orbits are exhausted, even
# though the line itself walks forever.
print("directed SAW series:", list(count_directed_saws(q3, 6).counts))
print("line SAW series:    ", list(count_saws(z1, n_max=6).counts))

# ---------------------------------------------------------------------------
# Walks, unlike SAWs, are in bijection with their directed projections.
# ---------------------------------------------------------------------------
print("\n=== walk-count bijection (all quotients, n <= 6) ===")
z2 = catalog("zd(2)")
fixtures = [
    (z1, sublattice_action([[3]])),
    (z2, sublattice_action([[2, 0], [0, 2]])),
    (z2, sublattice_action([[3, 0], [0, 1]])),
]
for g, action in fixtures:
    q = build_quotient(g, action)
    base = count_walks(g, None, 6)
    quot = count_directed_walks(q, 6)
    print(f"  {q.quotient_id:<24} match={base == quot}  {base}")

# ---------------------------------------------------------------------------
# A non-symmetric quotient: collapsing the levels of a tree with a
# distinguished end.  One edge up, two edges down - a legitimate
# quotient, but the multiplicity table is lopsided.
# ---------------------------------------------------------------------------
print("\n=== tree-with-end, levels collapsed ===")
te = catalog("tree-with-end(3)")
qcs = build_quotient(te, tree_action("child-swap"))
print("symmetric:", check_symmetry(qcs, probe_radius=3))
print("representative-independent:",
      check_representative_independence(te, qcs, radius=3))
dw = count_directed_saws(qcs, 10)
print("directed SAW series:", list(dw.counts), " (= 2**n + 1)")

# ---------------------------------------------------------------------------
# The square-octagon lattice quotiented by a diagonal translation is the
# ladder, vertex for vertex: same degree, isomorphic radius-6 balls,
# identical SAW counts.
# ---------------------------------------------------------------------------
print("\n=== square-octagon / diagonal translation == ladder ===")
so = catalog("square-octagon")
qso = build_quotient(so, sublattice_action([[1, -1]]))
h = derive_undirected(qso, keep_multiplicity=False)
ladder = catalog("ladder")
print("isomorphic on radius-6 balls:",
      balls_isomorphic(h, h.origin(), ladder, ladder.origin(), 6))
print("directed counts: ", list(count_directed_saws(qso, 10).counts))
print("ladder counts:   ", list(count_saws(ladder, n_max=10).counts))
