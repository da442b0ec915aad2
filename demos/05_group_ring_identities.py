"""Exact operator identities on the regular representation of G.

For a hyperplane L < N the subspace A_L of the rational group algebra is
cut out by two conditions: fixed by L, annihilated by summing the q
multiples of any transversal element.  The composed operator

    (sum of h over L) . (sum of twist powers)

acts on A_L as multiplication by exactly q^(n-1), and every individually
twisted term vanishes.  These are the group-ring facts behind the isogeny
between the product of the Pryms and the Jacobian of the quotient orbifold;
checking them on the (faithful) regular module certifies the group-ring
identity itself.  Integer arithmetic throughout, zero tolerance.
"""

from gonal import (
    CoverParams,
    build_group,
    enumerate_hyperplanes,
    fixed_subspace,
    frobenius_check,
    verify_cross_terms,
    verify_scalar_identity,
)

for p, q, r in [(5, 2, 3), (3, 2, 4)]:
    params = CoverParams(p, q, r)
    group = build_group(params)
    print(f"p={p}, q={q}, r={r}: |G| = {group.order}")

    report = frobenius_check(group)
    print(
        f"  Frobenius structure verified: {report.kernel_orbit_count} twist orbits "
        f"on the {report.kernel_size - 1} nontrivial kernel elements"
    )

    dims = set()
    scalars = set()
    for h in enumerate_hyperplanes(params):
        basis = fixed_subspace(group, h)
        dims.add(basis.shape[0])
        scalars.add(verify_scalar_identity(group, h))
        verify_cross_terms(group, h)
    print(f"  dim A_L = {dims.pop()} for every hyperplane (= p(q-1))")
    print(f"  operator scalar = {scalars.pop()} = q^(n-1), cross terms all vanish")
    print()
