"""The tests' brute-force oracle: every subspace of F_q^n, listed one by one."""

import numpy as np

from gonal.fqlinalg import Subspace, iter_echelon_forms


def all_subspaces(n: int, k: int, q: int) -> list[Subspace]:
    """Every k-dim subspace of F_q^n, one per reduced row-echelon form (small q^n only)."""
    forms = iter_echelon_forms(n, k, np.ones(1, dtype=np.int64), np.arange(q)[:, None])
    return [Subspace(form, n, q) for form in forms]
