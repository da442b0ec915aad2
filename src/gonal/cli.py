"""Command-line reports over the whole toolkit.

Subcommands: `invariants` (genus/dimension formulas with identity checks),
`atlas` (counts and renders the orbit classes, with cores and Galois
descriptors, that `orbit_classes` has checked), `galois`
(closure of the cover attached to a subgroup file), `reps` (representation
census), and `verify` (named check suites).

Each `cmd_*(args, params)` returns its `verify.CheckResult` rows and a
payload; `_run` alone times it, serializes the result into one
ReportEnvelope, renders it as text or, with --json, streams it as JSON
in which all integers are decimal strings (genus values overflow doubles
long before they get interesting), and picks the exit code.  Exit codes:
0 success, 1 a verification check failed, 2 bad input, 3 a resource cap
refused the run.  `atlas --cap` bounds the ambient size q^n, `verify --cap`
the group order.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from .action import CoverParams, build_action
from .atlas import (
    DEFAULT_ATLAS_CAP,
    core,
    core_histogram,
    galois_closure,
    galois_group,
    hyperplane_from_file,
    orbit_classes,
)
from .calculus import decomposition_report, genus_quotient_by_core
from .errors import (
    CapExceededError,
    FixtureParseError,
    GonalError,
    IdentityCheckError,
    InvalidParamsError,
    decimal,
    refuse_unprintable,
)
from .groupring import DEFAULT_GROUP_CAP
from .reps import rep_table
from .verify import SUITES, CheckResult, census_rows, identity_rows, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


# The decimals of 0..255, shared by every small int jsonify meets (the digits of
# every normal), instead of one new string each.
_SMALL_DECIMALS = tuple(str(i) for i in range(256))


def jsonify(value):
    """Recursively stringify ints (bool stays bool) for overflow-safe JSON."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _SMALL_DECIMALS[value] if 0 <= value < 256 else decimal(value)
    if isinstance(value, (float, str)):
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
    checks: list  # {name, status, detail} dicts
    payload: dict
    timing_s: float

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "checks": self.checks,
            "payload": self.payload,
            "timing_s": self.timing_s,
        }

    def to_json(self, fp) -> None:
        """Write the envelope as indented JSON and a newline to `fp`.

        json.dump writes chunk by chunk, so the whole text is never held.
        """
        json.dump(self.to_dict(), fp, indent=2)
        fp.write("\n")

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


def cmd_invariants(args, params: CoverParams):
    # g~ = 1 + q^n (g - 1) is the largest value printed: refuse it before
    # decomposition_report builds n/s0 + 1 genus values about its size.  It has
    # the digits of (g - 1) q^n unless it is a power of ten, which `decimal` refuses.
    refuse_unprintable(params.q, params.n, params.g - 1)
    report = decomposition_report(params)
    payload = {k: v for k, v in vars(report).items() if k not in ("params", "genus_z")}
    payload["genus_by_core_dim"] = report.genus_z
    return identity_rows(report), payload


def cmd_atlas(args, params: CoverParams):
    # orbit_classes refuses past the cap before it builds the action, and
    # returns only classes whose orbit and core passed their checks.
    classes = orbit_classes(params, cap=args.cap)
    class_count = len(classes)
    limit = args.limit if args.limit is not None else class_count
    # One pass in class order, popping each class off the reversed list once it
    # is counted and rendered, so classes and rows are never all alive.
    classes.reverse()
    histogram: dict[int, int] = {}
    groups: dict[int, str] = {}
    rows = []
    while classes:
        cls = classes.pop()
        dim = cls.core_dim
        histogram[dim] = histogram.get(dim, 0) + 1
        if len(rows) == limit:
            continue
        group = groups.get(dim)
        if group is None:
            group = groups[dim] = galois_group(params, params.n - dim)
        row = {
            "representative": list(cls.representative.normal),
            "core_dim": dim,
            "galois_group": group,
        }
        if args.orbits:
            row["members"] = [list(h.normal) for h in cls.members]
        if args.cores:
            row["core_basis"] = [list(v) for v in cls.core.basis_array.tolist()]
        rows.append(row)
    # The observed core-dim histogram equals the closed form, whose least dim is
    # n - (p-1) = (p-1)(r-3), so every core meets the stated bound.
    expected = core_histogram(params)
    cores_detail = f"core-dim histogram {dict(sorted(histogram.items()))} " + (
        "equals the closed form" if histogram == expected else f"!= closed form {expected}"
    )
    count_detail = f"{decimal(class_count)} classes"
    if class_count != params.t:
        count_detail += f", not t = {decimal(params.t)}"
    checks = [
        CheckResult("orbit-count-equals-t", class_count == params.t, count_detail),
        CheckResult("cores-invariant-and-quantized", histogram == expected, cores_detail),
    ]
    payload = {
        "m": params.m,
        "t": params.t,
        "class_count": class_count,
        "core_dim_histogram": histogram,
        "core_dim_min_observed": min(histogram),
        "core_dim_bound_rank": max(0, params.n - params.p),
        "core_dim_bound_stated": (params.p - 1) * (params.r - 3),
        "classes_shown": len(rows),
        "classes": rows,
    }
    return checks, payload


def cmd_galois(args, params: CoverParams):
    h = hyperplane_from_file(args.subgroup, params)
    action = build_action(params)
    report = galois_closure(h, params, action)
    # q^k = 1 mod p holds by construction once k = s0 |J| (galois_closure raises
    # otherwise), so the row passes exactly when the elimination's core dimension
    # equals the one read off the primary decomposition.
    eliminated_dim = core(h, action).dim
    passed = eliminated_dim == report.core_dim
    detail = f"q^{decimal(report.k)} = 1 mod {decimal(params.p)}"
    if not passed:
        detail += (
            f", but the elimination gives core dim {decimal(eliminated_dim)} "
            f"and the primary decomposition {decimal(report.core_dim)}"
        )
    payload = {
        "subgroup_file": args.subgroup,
        "normal": list(h.normal),
        "core_dim": report.core_dim,
        "core_size": report.core_size,
        "k": report.k,
        "galois_group": report.group,
        "galois_group_order": report.group_order,
        "is_composite_galois": report.is_composite_galois,
        "quotient_genus": genus_quotient_by_core(params, report.core_dim),
    }
    return [CheckResult("closure-order-condition", passed, detail)], payload


def cmd_reps(args, params: CoverParams):
    # |G| = p q^n, in the sum-of-squares row, is the largest value printed.
    refuse_unprintable(params.q, params.n, params.p)
    table = rep_table(params)
    payload = {
        "complex": [asdict(e) for e in table.complex_entries],
        "rational": [asdict(e) for e in table.rational_entries],
        "isotypical_factors": [
            {"rep": f.rep_label, "factor": f.factor, "dim": f.dim, "count": f.count}
            for f in table.pairing
        ],
    }
    return census_rows(table), payload


def cmd_verify(args, params):
    results = run_suite(args.suite, cap=args.cap)
    failures = [r for r in results if not r.passed]
    payload = {"suite": args.suite, "checks_run": len(results), "failures": len(failures)}
    if failures:
        payload["first_witness"] = f"{failures[0].name}: {failures[0].detail}"
    return results, payload


def _run(args) -> int:
    """Time one command, serialize and print its envelope, and pick the exit code."""
    start = time.perf_counter()
    params = None if args.subcommand == "verify" else CoverParams(args.p, args.q, args.r)
    checks, payload = args.func(args, params)
    payload = jsonify(payload)
    envelope = ReportEnvelope(
        command=args.subcommand,
        params=None if params is None else jsonify(params.describe()),
        checks=[{"name": c.name, "status": "pass" if c.passed else "fail", "detail": c.detail}
                for c in checks],
        payload=payload,
        timing_s=time.perf_counter() - start,
    )
    if args.json:
        envelope.to_json(sys.stdout)
    else:
        print(envelope.render_text())
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


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
    p_atlas.add_argument(
        "--cap", type=int, default=DEFAULT_ATLAS_CAP, help="ambient-size cap q^n (default %(default)s)"
    )
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
    p_verify.add_argument(
        "--cap", type=int, default=DEFAULT_GROUP_CAP, help="group-order cap (default %(default)s)"
    )
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
        return _run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: re-run with --cap {exc.required_text}", file=sys.stderr)
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
