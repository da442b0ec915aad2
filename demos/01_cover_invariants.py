"""Genus and dimension bookkeeping for a tower of covers.

Pick a cyclic p-gonal curve X (gonal order p, r branch points) and a prime
q.  The exponent-q homology cover X~ has deck group Z_q^2g; every index-q
subgroup gives an intermediate unramified cover Y_j, and quotienting X~ by
the lifted gonal action gives an orbifold T.  All of their genera, and the
dimensions of the Prym varieties P(Y_j/X), come from closed formulas that
satisfy exact identities -- this script prints and cross-checks them.
"""

import sys

from gonal import CoverParams, decomposition_report, parameter_sweep
from gonal.verify import identity_rows

report = decomposition_report(CoverParams(p=5, q=2, r=3))
print("p=5, q=2, r=3")
print(f"  base genus g            = {report.g}")
print(f"  homology cover genus g~ = {report.g_tilde}")
print(f"  intermediate genus g_Y  = {report.g_y}")
print(f"  orbifold quotient g_T   = {report.g_t}")
print(f"  Prym dimension          = {report.prym_dim}")
print(f"  maximal subgroups m     = {report.m}, orbit classes t = {report.t}")
print()
print("The t = 3 Pryms are elliptic curves and their product fills J(T):")
print(f"  t * prym_dim = {report.t * report.prym_dim} = g_T = {report.g_t}")
print()

# The identities hold exactly for every admissible triple, not just here.
sweep = parameter_sweep()
for params in sweep:
    for row in identity_rows(decomposition_report(params)):  # one row per identity, each can fail
        if not row.passed:
            sys.exit(f"{row.name} fails for {params}: {row.detail}")
print(
    "verified g~ = g + m*prym, t*prym = g_T and (g(X~/N), g(X~/G)) = (g, 0) "
    f"on {len(sweep)} parameter triples"
)

# Quotients by invariant subgroups interpolate between X~ and X.
big = decomposition_report(CoverParams(p=13, q=3, r=3))
print()
print("p=13, q=3, r=3: genus of X~/K by the rank of the invariant subgroup K")
for core_dim, genus in big.genus_z.items():
    print(f"  rank {core_dim:>2}: genus {genus:>9,}")
