"""Every check row the CLI reports, and the named suites of `gonal verify`.

A CheckResult row is the outcome of one exact check, with no tolerances;
`identity_rows` and `census_rows` check the closed forms of `calculus` and
`reps` for `gonal invariants`, `gonal reps` and the `identities` suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CoverParams, build_action, parameter_sweep
from .atlas import (
    Hyperplane,
    core,
    enumerate_hyperplanes,
    galois_closure,
    parse_generator_words,
    read_fixture,
)
from .calculus import CoverReport, decomposition_report, genus_quotient_by_core
from .errors import (
    CapExceededError,
    GonalError,
    IdentityCheckError,
    InvalidParamsError,
    decimal,
    positive_cap,
)
from .groupring import (
    DEFAULT_GROUP_CAP,
    build_group,
    frobenius_check,
    verify_cross_terms,
    verify_scalar_identity,
)
from .reps import RepTable, rep_table

SUITES = ("groupring", "identities", "fixtures", "all")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _require(holds: bool, witness: str) -> None:
    """Raise IdentityCheckError(witness) unless `holds`; unlike assert, survives -O."""
    if not holds:
        raise IdentityCheckError(witness)


def _checked(name: str, fn) -> CheckResult:
    try:
        detail = fn()
        return CheckResult(name, True, detail or "")
    except GonalError as exc:
        return CheckResult(name, False, str(exc))


def _equal(name: str, identity: str, lhs, rhs, detail: str = "") -> CheckResult:
    """Row `name`: passes with `detail` iff lhs == rhs, else names both sides of `identity`."""
    if lhs == rhs:
        return CheckResult(name, True, detail)
    lhs, rhs = (f"({', '.join(map(decimal, v))})" if isinstance(v, tuple) else decimal(v)
                for v in (lhs, rhs))
    return CheckResult(name, False, f"{identity}: {lhs} vs {rhs}")


def identity_rows(report: CoverReport) -> list[CheckResult]:
    """The rows of `gonal invariants`: the decomposition identities between the closed forms."""
    n = report.params.n
    g_ends = (report.genus_z[n], genus_quotient_by_core(report.params, n, twisted=True))
    return [
        _equal("jacobian-dimension-identity", "g~ = g + m * prym",
               report.g_tilde, report.g + report.m * report.prym_dim),
        _equal("prym-sum-equals-quotient-jacobian", "t * prym = g_T",
               report.t * report.prym_dim, report.g_t),
        _equal("riemann-hurwitz-endpoints", "(g(X~/N), g(X~/G)) = (g, 0)",
               g_ends, (report.g, 0)),
    ]


def census_rows(table: RepTable) -> list[CheckResult]:
    """The rows of `gonal reps`: the sum of squared degrees and the rational grouping."""
    p, q, t = table.params.p, table.params.q, table.params.t
    squares = sum(e.count * e.degree**2 for e in table.complex_entries)
    return [
        _equal("sum-of-squares", "sum of count * degree^2 = |G|",
               squares, table.params.group_order, f"{decimal(squares)} = |G|"),
        _equal("rational-grouping", "1 + (p-1) + t(q-1) = complex irreducibles",
               1 + (p - 1) + t * (q - 1), table.complex_irreducible_count,
               f"{decimal(table.rational_irreducible_count)} rational irreducibles"),
    ]


def suite_identities() -> list[CheckResult]:
    """The rows of `gonal invariants` and `gonal reps` across the whole parameter sweep."""
    sweep = parameter_sweep()

    def run_all():
        for params in sweep:
            for row in identity_rows(decomposition_report(params)) + census_rows(rep_table(params)):
                _require(row.passed, f"{row.name} for {params}: {row.detail}")
        return f"{len(sweep)} parameter triples"

    results = [_checked("identities-sweep", run_all)]

    def run_example():
        rep = decomposition_report(CoverParams(5, 2, 3))
        _require(
            (rep.t, rep.prym_dim, rep.g_t) == (3, 1, 3),
            f"expected (t, prym, g_T) = (3, 1, 3), got {(rep.t, rep.prym_dim, rep.g_t)}",
        )
        return "t=3, prym_dim=1, g_T=3"

    results.append(_checked("identities-worked-example-p5-q2", run_example))
    return results


def suite_groupring(cap: int = DEFAULT_GROUP_CAP) -> list[CheckResult]:
    """Frobenius structure and the q^(n-1) operator identity, exhaustively.

    A group past `cap` raises CapExceededError; a failed axiom fails the
    triple's `-build` row.
    """
    results = []
    for p, q, r in [(5, 2, 3), (3, 2, 4)]:
        params = CoverParams(p, q, r)
        tag = f"{p}-{q}-{r}"
        try:
            group = build_group(params, cap=cap)
        except CapExceededError:
            raise  # a refusal, not a failed check: the CLI exits 3 on it
        except GonalError as exc:
            results.append(CheckResult(f"groupring-{tag}-build", False, str(exc)))
            continue
        results.append(CheckResult(f"groupring-{tag}-build", True, f"order {group.order}"))
        results.append(
            _checked(
                f"groupring-{tag}-frobenius",
                lambda g=group: f"{frobenius_check(g).kernel_orbit_count} kernel orbits",
            )
        )

        expected = q ** (params.n - 1)
        scalar_error = cross_error = None
        # A hyperplane's two checks run back to back, so its A_L is built once;
        # each row keeps its first failure.
        for h in enumerate_hyperplanes(params):
            if scalar_error is None:
                try:
                    got = verify_scalar_identity(group, h)
                    _require(got == expected, f"scalar {got} != {expected} on {h}")
                except GonalError as exc:
                    scalar_error = str(exc)
            if cross_error is None:
                try:
                    verify_cross_terms(group, h)
                except GonalError as exc:
                    cross_error = str(exc)
        scalar_row = CheckResult(
            f"groupring-{tag}-scalar",
            scalar_error is None,
            scalar_error or f"scalar {expected} on all {params.m} hyperplanes",
        )
        cross_row = CheckResult(
            f"groupring-{tag}-cross-terms",
            cross_error is None,
            cross_error or f"all twisted terms vanish on {params.m} hyperplanes",
        )
        results += [scalar_row, cross_row]
    return results


FIXTURE_EXPECTATIONS = {
    # name -> (core dim, Galois group, genus of the quotient by the core)
    "L1": (0, "Z_3^12 ⋊ Z_13", 2657206),
    "L2": (3, "Z_3^9 ⋊ Z_13", 98416),
    "L3": (6, "Z_3^6 ⋊ Z_13", 3646),
    "L4": (9, "Z_3^3 ⋊ Z_13", 136),
}


def suite_fixtures() -> list[CheckResult]:
    """The bundled (13, 3, 3) sample subgroups reproduce their known data."""
    params = CoverParams(13, 3, 3)
    action = build_action(params)
    results = []
    for name, (core_dim, group_desc, genus) in FIXTURE_EXPECTATIONS.items():

        def run(name=name, core_dim=core_dim, group_desc=group_desc, genus=genus):
            sub = parse_generator_words(read_fixture(name + ".gens"), params)
            _require(sub.dim == params.n - 1, f"{name} is not a hyperplane")
            h = Hyperplane.from_subspace(sub)
            report = galois_closure(h, params, action)
            _require(
                report.core_dim == core_dim,
                f"{name}: core dim {report.core_dim}, expected {core_dim}",
            )
            _require(report.group == group_desc, f"{name}: group {report.group}")
            got_genus = genus_quotient_by_core(params, report.core_dim)
            _require(got_genus == genus, f"{name}: quotient genus {got_genus}")
            return f"core 3^{core_dim}, {group_desc}, quotient genus {genus}"

        results.append(_checked(f"fixture-{name}", run))

    def run_cores(params=params, action=action):
        for lname, kname in [("L2", "K2"), ("L3", "K3"), ("L4", "K4")]:
            sub = parse_generator_words(read_fixture(lname + ".gens"), params)
            h = Hyperplane.from_subspace(sub)
            expected = parse_generator_words(read_fixture(kname + ".gens"), params)
            _require(core(h, action) == expected, f"{kname} does not span the core of {lname}")
        return "published core generators span the computed cores"

    results.append(_checked("fixture-core-generators", run_cores))
    return results


def run_suite(suite: str, cap: int = DEFAULT_GROUP_CAP) -> list[CheckResult]:
    """Rows of the named suite; `cap` bounds the group order.

    A cap that is not a positive integer raises InvalidParamsError before any check runs.
    """
    if suite not in SUITES:
        raise InvalidParamsError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    positive_cap(cap, "group-order cap")
    results = []
    if suite in ("identities", "all"):
        results += suite_identities()
    if suite in ("groupring", "all"):
        results += suite_groupring(cap=cap)
    if suite in ("fixtures", "all"):
        results += suite_fixtures()
    return results
