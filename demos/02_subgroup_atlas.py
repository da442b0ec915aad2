"""Classifying the maximal subgroups of the homology group.

Maximal subgroups of Z_q^n are hyperplanes; the lifted gonal automorphism
permutes them in orbits of size exactly p.  Each orbit carries a core (the
intersection of its p kernels), and the core decides the Galois closure of
the composite cover Y -> X -> P^1: the closure group is Z_q^k x| Z_p with
k = n - dim(core).
"""

from collections import Counter

from gonal import CoverParams, build_action, galois_closure, orbit_classes

params = CoverParams(p=3, q=2, r=4)
action = build_action(params)
classes = orbit_classes(params)
print(f"p=3, q=2, r=4: {params.m} hyperplanes in {len(classes)} orbits of size {params.p}")
for cls in classes:
    rep = cls.representative
    closure = galois_closure(rep, params, action)
    print(
        f"  orbit of {rep.normal}: core rank {cls.core_dim}, "
        f"closure {closure.group} (order {closure.group_order})"
    )
print()

# Irreducible case: one block and an irreducible cyclotomic polynomial force
# every core to be trivial.
params = CoverParams(p=5, q=2, r=3)
classes = orbit_classes(params)
print(f"p=5, q=2, r=3: core ranks {sorted({c.core_dim for c in classes})} (always trivial)")
print()

# Split cyclotomic polynomial: core ranks spread over the multiples of s0.
params = CoverParams(p=7, q=2, r=3)
classes = orbit_classes(params)
histogram = Counter(c.core_dim for c in classes)
print(f"p=7, q=2, r=3: {len(classes)} orbit classes, core-rank histogram:")
for dim in sorted(histogram):
    print(f"  rank {dim:>2}: {histogram[dim]:>5} classes")
print(f"  (every rank is a multiple of s0 = {params.s0})")
