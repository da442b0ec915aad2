"""Irreducible representations of G = Z_q^n x| Z_p and the Jacobian factors.

G is a Frobenius group, so its complex irreducibles are rigid: p linear
characters plus (q^n - 1)/p induced representations of degree p.  Over Q
the linear characters fuse into chi_0 + U, and the induced ones fuse into
one representation per hyperplane orbit.  The rational census is exactly
what indexes the isogeny factors of the homology cover's Jacobian.
"""

from gonal import CoverParams, orbit_classes, rep_table

for p, q, r in [(5, 2, 3), (3, 2, 4), (13, 3, 3)]:
    params = CoverParams(p, q, r)
    table = rep_table(params)
    print(f"p={p}, q={q}, r={r}  (|G| = {params.group_order:,})")
    print("  complex irreducibles:")
    for e in table.complex_entries:
        print(f"    {e.label:<6} degree {e.degree:>2}  x{e.count:,}")
    print("  rational irreducibles:")
    for e in table.rational_entries:
        print(f"    {e.label:<6} degree {e.degree:>2}  x{e.count:,}")
    squares = sum(e.count * e.degree**2 for e in table.complex_entries)
    print(f"  sum of squared degrees = {squares:,} = |G|")
    print()

# The isotypical factors of J(X~) and their exact dimension budget.
params = CoverParams(5, 2, 3)
print("isogeny factors of J(X~) for p=5, q=2, r=3:")
total = 0
for factor in rep_table(params).pairing:
    print(f"  {factor.factor:<12} dim {factor.dim} x{factor.count}  (acted on via {factor.rep_label})")
    total += factor.dim * factor.count
print(f"  total = {total} = genus of the homology cover")
print()

# Induced representations remember their kernels: the orbit cores.
params = CoverParams(3, 2, 4)
for orbit in orbit_classes(params):
    label = f"V[{','.join(str(c) for c in orbit.representative.normal)}]"
    print(f"  {label}: kernel of size {params.q**orbit.core_dim} (= q^core_rank)")
