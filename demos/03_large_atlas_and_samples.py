"""The full atlas at q=3, p=13, r=3, plus the bundled sample subgroups.

Here the homology group is Z_3^12 with 265,720 maximal subgroups falling
into 20,440 orbits.  The possible core ranks are the multiples of
s0 = ord_13(3) = 3, and all four of them occur; the bundled .gens files
give one explicit subgroup for each rank, together with generator words
for their cores (K2.gens .. K4.gens).
"""

import sys
import time
from collections import Counter

from gonal import (
    CoverParams,
    Hyperplane,
    build_action,
    core,
    galois_closure,
    genus_quotient_by_core,
    orbit_classes,
    parse_generator_words,
    read_fixture,
)

params = CoverParams(p=13, q=3, r=3)
action = build_action(params)

print(f"n = {params.n}, m = {params.m:,} hyperplanes, t = {params.t:,} orbits")
start = time.perf_counter()
classes = orbit_classes(params)
print(f"classified all orbits in {time.perf_counter() - start:.1f}s")
histogram = Counter(c.core_dim for c in classes)
for dim in sorted(histogram):
    print(f"  core rank {dim}: {histogram[dim]:>6} classes -> closure Z_3^{params.n - dim} ⋊ Z_13")
print()

for name in ("L1", "L2", "L3", "L4"):
    sub = parse_generator_words(read_fixture(name + ".gens"), params)
    h = Hyperplane.from_subspace(sub)
    closure = galois_closure(h, params, action)
    genus = genus_quotient_by_core(params, closure.core_dim)
    print(
        f"{name}: normal {h.normal}, core size 3^{closure.core_dim}, "
        f"closure {closure.group}, closure curve genus {genus:,}"
    )

# The bundled core generators span exactly the computed cores.
for lname, kname in (("L2", "K2"), ("L3", "K3"), ("L4", "K4")):
    sub = parse_generator_words(read_fixture(lname + ".gens"), params)
    h = Hyperplane.from_subspace(sub)
    expected = parse_generator_words(read_fixture(kname + ".gens"), params)
    if core(h, action) != expected:
        sys.exit(f"{kname}.gens does not span the computed core of {lname}")
print()
print("bundled core generator files match the computed cores exactly")
