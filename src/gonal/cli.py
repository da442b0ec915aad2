"""Command-line reports over the whole toolkit.

Subcommands: `invariants` (genus/dimension formulas with identity checks),
`atlas` (orbit classification with cores and Galois descriptors), `galois`
(closure of the cover attached to a subgroup file), `reps` (representation
census), and `verify` (named check suites).

Every command renders one ReportEnvelope either as text or, with --json,
as JSON in which all integers are decimal strings (genus values overflow
doubles long before they get interesting).  Exit codes: 0 success, 1 a
verification check failed, 2 bad input, 3 a resource cap refused the run.
The GONAL_ATLAS_CAP environment variable overrides the enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .action import CoverParams, build_action
from .atlas import (
    GaloisReport,
    Hyperplane,
    core,
    core_histogram,
    galois_closure,
    orbit_classes,
    subgroup_from_file,
)
from .calculus import decomposition_report, genus_quotient_by_core
from .errors import (
    CapExceededError,
    FixtureParseError,
    GonalError,
    IdentityCheckError,
    InvalidParamsError,
)
from .reps import coset_rep_decomposition, rep_table
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


def jsonify(value):
    """Recursively stringify ints (bool stays bool) for overflow-safe JSON."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


@dataclass
class ReportEnvelope:
    """One command's output: params echo, payload, and check statuses."""

    command: str
    params: dict | None
    checks: list = field(default_factory=list)  # [{"name":..., "status":...}]
    payload: dict = field(default_factory=dict)
    timing_s: float = 0.0

    def all_passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "checks": self.checks,
            "payload": self.payload,
            "timing_s": self.timing_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.params:
            lines.append(
                "params: " + " ".join(f"{k}={v}" for k, v in self.params.items())
            )
        lines += _render_payload(self.payload, indent="")
        for check in self.checks:
            suffix = f"  ({check['detail']})" if check.get("detail") else ""
            lines.append(f"check {check['name']}: {check['status']}{suffix}")
        lines.append(f"elapsed: {self.timing_s:.3f}s")
        return "\n".join(lines)


def _render_payload(payload, indent: str) -> list[str]:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines += _render_payload(value, indent + "  ")
        elif isinstance(value, list):
            if all(not isinstance(item, (dict, list)) for item in value):
                lines.append(f"{indent}{key}: [{', '.join(str(v) for v in value)}]")
                continue
            lines.append(f"{indent}{key}: [{len(value)} entries]")
            for item in value:
                if isinstance(item, dict):
                    row = " ".join(f"{k}={v}" for k, v in item.items())
                    lines.append(f"{indent}  - {row}")
                else:
                    lines.append(f"{indent}  - {item}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def _params_from_args(args) -> CoverParams:
    return CoverParams(args.p, args.q, args.r)


def _emit(envelope: ReportEnvelope, as_json: bool) -> None:
    print(envelope.to_json() if as_json else envelope.render_text())


def cmd_invariants(args) -> int:
    start = time.perf_counter()
    params = _params_from_args(args)
    report = decomposition_report(params)
    payload = jsonify(
        {
            "g": report.g,
            "g_tilde": report.g_tilde,
            "g_y": report.g_y,
            "g_t": report.g_t,
            "prym_dim": report.prym_dim,
            "m": report.m,
            "t": report.t,
            "s0": report.s0,
            "genus_by_core_dim": report.genus_z,
        }
    )
    checks = [
        {"name": name, "status": "pass", "detail": ""}
        for name in report.identity_names()
    ]
    envelope = ReportEnvelope(
        command="invariants",
        params=jsonify(params.describe()),
        checks=checks,
        payload=payload,
        timing_s=time.perf_counter() - start,
    )
    _emit(envelope, args.json)
    return EXIT_OK if envelope.all_passed() else EXIT_CHECK_FAILED


def _cores_check(params: CoverParams, histogram: dict[int, int]) -> dict:
    """Row `cores-invariant-and-quantized`: the observed core-dim histogram equals
    the closed form core_histogram(params), whose dims are all n - s0 j
    (OrbitClass.verify checks invariance and quantization per class)."""
    expected = core_histogram(params)
    passed = histogram == expected
    return {
        "name": "cores-invariant-and-quantized",
        "status": "pass" if passed else "fail",
        "detail": f"core-dim histogram {dict(sorted(histogram.items()))} "
        + ("equals the closed form" if passed else f"!= closed form {expected}"),
    }


def cmd_atlas(args) -> int:
    start = time.perf_counter()
    params = _params_from_args(args)
    action = build_action(params)
    classes = orbit_classes(params, cap=args.cap, action=action)
    histogram: dict[int, int] = {}
    for cls in classes:
        histogram[cls.core_dim] = histogram.get(cls.core_dim, 0) + 1
    facts = [cls.verify(action) for cls in classes]
    checks = [
        {
            "name": "orbit-count-equals-t",
            "status": "pass" if len(classes) == params.t else "fail",
            "detail": f"{len(classes)} classes",
        },
        {
            "name": "orbits-have-size-p",
            "status": "pass"
            if all(len(set(c.members)) == params.p for c in classes)
            else "fail",
            "detail": "",
        },
        _cores_check(params, histogram),
        {
            "name": "cores-meet-stated-bound",
            "status": "pass" if all(f["meets_stated_bound"] for f in facts) else "fail",
            "detail": f"bound {(params.p - 1) * (params.r - 3)}",
        },
    ]
    limit = args.limit if args.limit is not None else len(classes)
    rows = []
    for cls in classes[:limit]:
        row = {
            "representative": list(cls.representative.normal),
            "core_dim": cls.core_dim,
            "galois_group": f"Z_{params.q}^{params.n - cls.core_dim} ⋊ Z_{params.p}",
        }
        if args.orbits:
            row["members"] = [list(h.normal) for h in cls.members]
        if args.cores:
            row["core_basis"] = [list(v) for v in cls.core.basis_array.tolist()]
        rows.append(row)
    payload = jsonify(
        {
            "m": params.m,
            "t": params.t,
            "class_count": len(classes),
            "core_dim_histogram": histogram,
            "core_dim_min_observed": min(histogram),
            "core_dim_bound_rank": max(0, params.n - params.p),
            "core_dim_bound_stated": (params.p - 1) * (params.r - 3),
            "classes_shown": len(rows),
            "classes": rows,
        }
    )
    envelope = ReportEnvelope(
        command="atlas",
        params=jsonify(params.describe()),
        checks=checks,
        payload=payload,
        timing_s=time.perf_counter() - start,
    )
    _emit(envelope, args.json)
    return EXIT_OK if envelope.all_passed() else EXIT_CHECK_FAILED


def _closure_check(params: CoverParams, report: GaloisReport, eliminated_dim: int) -> dict:
    """Row `closure-order-condition`: q^k = 1 mod p holds by construction once
    k = s0 |J| (galois_closure raises otherwise), so the row passes exactly
    when the elimination's core dimension equals the one read off the
    primary decomposition."""
    detail = f"q^{report.k} = 1 mod {params.p}"
    passed = eliminated_dim == report.core_dim
    if not passed:
        detail += (
            f", but the elimination gives core dim {eliminated_dim} "
            f"and the primary decomposition {report.core_dim}"
        )
    return {
        "name": "closure-order-condition",
        "status": "pass" if passed else "fail",
        "detail": detail,
    }


def cmd_galois(args) -> int:
    start = time.perf_counter()
    params = _params_from_args(args)
    sub = subgroup_from_file(args.subgroup, params)
    if sub.dim != params.n - 1:
        raise InvalidParamsError(
            f"{args.subgroup} spans dimension {sub.dim}, not a maximal subgroup "
            f"of Z_{params.q}^{params.n}"
        )
    h = Hyperplane.from_subspace(sub)
    action = build_action(params)
    report = galois_closure(h, params, action)
    payload = jsonify(
        {
            "subgroup_file": args.subgroup,
            "normal": list(h.normal),
            "core_dim": report.core_dim,
            "core_size": report.core_size,
            "k": report.k,
            "galois_group": report.group,
            "galois_group_order": report.group_order,
            "is_composite_galois": report.is_composite_galois,
            "exceeds_complement_range": report.exceeds_complement_range,
            "quotient_genus": genus_quotient_by_core(params, report.core_dim),
        }
    )
    checks = [_closure_check(params, report, core(h, action).dim)]
    envelope = ReportEnvelope(
        command="galois",
        params=jsonify(params.describe()),
        checks=checks,
        payload=payload,
        timing_s=time.perf_counter() - start,
    )
    _emit(envelope, args.json)
    return EXIT_OK if envelope.all_passed() else EXIT_CHECK_FAILED


def cmd_reps(args) -> int:
    start = time.perf_counter()
    params = _params_from_args(args)
    table = rep_table(params)
    sum_squares = sum(e.count * e.degree**2 for e in table.complex_entries)
    payload = jsonify(
        {
            "complex": [
                {"label": e.label, "degree": e.degree, "count": e.count}
                for e in table.complex_entries
            ],
            "rational": [
                {"label": e.label, "degree": e.degree, "count": e.count}
                for e in table.rational_entries
            ],
            "isotypical_factors": [
                {
                    "rep": f.rep_label,
                    "factor": f.factor,
                    "dim": f.dim,
                    "count": f.count,
                }
                for f in table.pairing
            ],
            "coset_representations": coset_rep_decomposition(params),
        }
    )
    checks = [
        {
            "name": "sum-of-squares",
            "status": "pass" if sum_squares == params.group_order else "fail",
            "detail": f"{sum_squares} = |G|",
        },
        {
            "name": "rational-grouping",
            "status": "pass",  # rep_table raises if the grouping breaks
            "detail": f"{table.rational_irreducible_count} rational irreducibles",
        },
    ]
    envelope = ReportEnvelope(
        command="reps",
        params=jsonify(params.describe()),
        checks=checks,
        payload=payload,
        timing_s=time.perf_counter() - start,
    )
    _emit(envelope, args.json)
    return EXIT_OK if envelope.all_passed() else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    start = time.perf_counter()
    results = run_suite(args.suite, cap=args.cap)
    checks = [
        {"name": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
        for r in results
    ]
    failures = [r for r in results if not r.passed]
    payload = {
        "suite": args.suite,
        "checks_run": str(len(results)),
        "failures": str(len(failures)),
    }
    if failures:
        payload["first_witness"] = f"{failures[0].name}: {failures[0].detail}"
    envelope = ReportEnvelope(
        command="verify",
        params=None,
        checks=checks,
        payload=payload,
        timing_s=time.perf_counter() - start,
    )
    _emit(envelope, args.json)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_params(parser: argparse.ArgumentParser):
    parser.add_argument("--p", type=int, required=True, help="odd prime order of the gonal action")
    parser.add_argument("--q", type=int, required=True, help="prime exponent of the homology cover")
    parser.add_argument("--r", type=int, required=True, help="number of branch points (>= 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gonal",
        description="Exact reports on homology covers of cyclic p-gonal curves.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_inv = sub.add_parser("invariants", help="genus and dimension formulas with identity checks")
    _add_params(p_inv)
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(func=cmd_invariants)

    p_atlas = sub.add_parser("atlas", help="orbit classification of maximal subgroups")
    _add_params(p_atlas)
    p_atlas.add_argument("--orbits", action="store_true", help="list every orbit member")
    p_atlas.add_argument("--cores", action="store_true", help="include core bases")
    p_atlas.add_argument(
        "--limit", type=_non_negative_int, default=None, help="show at most N classes"
    )
    p_atlas.add_argument("--cap", type=int, default=None, help="override the enumeration cap")
    p_atlas.add_argument("--json", action="store_true")
    p_atlas.set_defaults(func=cmd_atlas)

    p_galois = sub.add_parser("galois", help="Galois closure of the cover from a subgroup file")
    _add_params(p_galois)
    p_galois.add_argument("--subgroup", required=True, metavar="FILE", help="generator-word file")
    p_galois.add_argument("--json", action="store_true")
    p_galois.set_defaults(func=cmd_galois)

    p_reps = sub.add_parser("reps", help="irreducible representation census")
    _add_params(p_reps)
    p_reps.add_argument("--json", action="store_true")
    p_reps.set_defaults(func=cmd_reps)

    p_verify = sub.add_parser("verify", help="run a named suite of exact checks")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--cap", type=int, default=None, help="group-order cap for groupring checks")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"hint: re-run with --cap {exc.required} or set GONAL_ATLAS_CAP={exc.required}",
            file=sys.stderr,
        )
        return EXIT_CAP
    except (InvalidParamsError, FixtureParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except IdentityCheckError as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except GonalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
