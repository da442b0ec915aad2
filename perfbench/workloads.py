"""The three benchmark workloads.

A workload's constructor is its set-up (timed as `setup_s`, together with
interpreter start and `import gonal`).  Each operation is `prepare` (untimed:
inputs for the next operation), `run` (timed; returns the output and, where
items are timed one at a time, each item's (start, end) time) and `check` (untimed
output gates; returns a list of problems).  Layers are called through their
modules, as users call them, so the tracer's patches see every call.
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np

from gonal import atlas, calculus, cli, groupring
from gonal.action import CoverParams, build_action

from . import gates

# Digest of the `payload` object of `gonal atlas --p 13 --q 3 --r 3 --json`
# (unmodified code); see gates.payload_digest.
ATLAS_13_3_3_DIGEST = "bf4ee9c495cf15e036c6256b92b819d326fdec69a6a9f8168b8a12527f265eb1"


class Atlas:
    """The paper's full atlas through the CLI: sweep, cores, verify, JSON rendering."""

    def __init__(self, seed: int, triple=(13, 3, 3), digest: str = ATLAS_13_3_3_DIGEST):
        # The atlas is fully determined by the triple: the seed is unused.
        self.params = CoverParams(*triple)
        self.action = build_action(self.params)
        p, q, r = triple
        self.argv = ["atlas", "--p", str(p), "--q", str(q), "--r", str(r), "--json"]
        self.digest = digest
        self.items = self.params.t

    def prepare(self, index: int):
        return None

    def run(self, _):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(self.argv)
        return (code, out.getvalue()), None

    def check(self, _, output) -> list[str]:
        code, text = output
        p, q, r = self.params.p, self.params.q, self.params.r
        return gates.check_atlas(code, json.loads(text), p, q, r, self.digest)

    @staticmethod
    def output_bytes(output) -> int:
        return len(output[1].encode())


class Galois:
    """Point queries: Galois closure and quotient genus of seeded random hyperplanes."""

    def __init__(self, seed: int, triple=(13, 3, 5), batch: int = 1000, oracle_per_batch: int = 2):
        self.params = CoverParams(*triple)
        self.action = build_action(self.params)
        self.rng = np.random.default_rng(seed)
        self.batch = batch
        self.oracle_per_batch = oracle_per_batch
        self.items = batch
        # (operation, conjugate normals, core_dim, q), checked with sympy by run.py
        self.oracle: list[tuple[int, list[list[int]], int, int]] = []
        self.index = 0

    def prepare(self, index: int) -> list[list[int]]:
        self.index = index
        q, n = self.params.q, self.params.n
        normals = self.rng.integers(0, q, size=(self.batch, n))
        while not normals.any(axis=1).all():
            zero = ~normals.any(axis=1)
            normals[zero] = self.rng.integers(0, q, size=(int(zero.sum()), n))
        return normals.tolist()

    def run(self, normals):
        params, action = self.params, self.action
        results, times = [], []
        for normal in normals:
            start = perf_counter()
            h = atlas.Hyperplane(normal, params.q)
            report = atlas.galois_closure(h, params, action)
            genus = calculus.genus_quotient_by_core(params, report.core_dim)
            times.append((start, perf_counter()))
            results.append((h, report.core_dim, genus))
        return results, times

    def check(self, normals, results) -> list[str]:
        p, q, r = self.params.p, self.params.q, self.params.r
        matrix = self.action.matrix_array
        oracle_at = set(self.rng.choice(len(results), self.oracle_per_batch, replace=False).tolist())
        problems = []
        for i, (h, core_dim, genus) in enumerate(results):
            stack = gates.conjugate_stack(normals[i], matrix, p, q)
            basis = atlas.core(h, self.action).basis_array
            problems += gates.check_galois_query(stack, core_dim, basis, genus, p, q, r)
            if i in oracle_at:
                self.oracle.append((self.index, stack.tolist(), core_dim, q))
        return problems


class GroupRing:
    """Regular-representation checks at |G| = 768: Frobenius structure, q^(n-1) scalar, cross terms."""

    def __init__(self, seed: int, triple=(3, 2, 6)):
        self.params = CoverParams(*triple)
        self.group = self._build()
        q, n = self.params.q, self.params.n
        normals = [v for v in itertools.product(range(q), repeat=n) if any(v)
                   and next(x for x in v if x) == 1]
        np.random.default_rng(seed).shuffle(normals)
        self.hyperplanes = [atlas.Hyperplane(v, q) for v in normals]
        self.items = len(self.hyperplanes)

    def _build(self):
        return groupring.build_group(self.params, cap=self.params.group_order)

    def prepare(self, index: int):
        # A fresh group per operation: every pass fills the left_perm cache,
        # as every `gonal verify` run does.
        if index > 0:
            self.group = self._build()
        return self.group

    def run(self, group):
        frob = groupring.frobenius_check(group)
        scalars, crosses, times = [], [], []
        for h in self.hyperplanes:
            start = perf_counter()
            scalars.append(groupring.verify_scalar_identity(group, h))
            crosses.append(groupring.verify_cross_terms(group, h))
            times.append((start, perf_counter()))
        return (frob.kernel_orbit_count, scalars, crosses), times

    def check(self, _, output) -> list[str]:
        orbit_count, scalars, crosses = output
        p, q, n = self.params.p, self.params.q, self.params.n
        return gates.check_groupring(orbit_count, scalars, crosses, p, q, n)


WORKLOADS = {
    "atlas-13-3-3": Atlas,
    "galois-13-3-5": Galois,
    "groupring-3-2-6": GroupRing,
}
