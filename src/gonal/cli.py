"""Command-line reports over the whole toolkit.

Subcommands: `invariants` (genus/dimension formulas with identity checks),
`atlas` (orbit classification with cores and Galois descriptors), `galois`
(closure of the cover attached to a subgroup file), `reps` (representation
census), and `verify` (named check suites).

Each `cmd_*(args, params)` returns its `verify.CheckResult` rows and a
payload; `_run` alone times it, serializes the result into one
ReportEnvelope, renders it as text or, with --json, streams it as JSON
in which all integers are decimal strings (genus values overflow doubles
long before they get interesting), and picks the exit code.  Exit codes:
0 success, 1 a verification check failed, 2 bad input, 3 a resource cap
refused the run.  The GONAL_ATLAS_CAP environment variable sets the atlas
enumeration cap when --cap does not; `verify --cap` bounds the group order
alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

from .action import CoverParams, build_action
from .atlas import (
    ENV_ATLAS_CAP,
    Hyperplane,
    check_cap,
    core,
    core_histogram,
    galois_closure,
    orbit_classes,
    resolve_atlas_cap,
    subgroup_from_file,
)
from .calculus import decomposition_report, genus_quotient_by_core
from .errors import (
    CapExceededError,
    FixtureParseError,
    GonalError,
    IdentityCheckError,
    InvalidParamsError,
    decimal,
    digits_from_log10,
    int_str_limit,
    too_many_digits,
)
from .reps import rep_table
from .verify import SUITES, CheckResult, census_rows, identity_rows, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


def _refuse_unprintable(log10_value: float, build) -> None:
    """Refuse, as `decimal` would, the largest value a command prints, before it is built.

    The digit count is read off `log10_value`, its logarithm in floating
    point (see `digits_from_log10`).
    """
    digits = digits_from_log10(log10_value, build)
    if 0 < int_str_limit() < digits:
        raise too_many_digits(digits)


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
    # decomposition_report builds n/s0 + 1 genus values about its size.
    _refuse_unprintable(
        params.n * math.log10(params.q) + math.log10(params.g - 1),
        lambda: genus_quotient_by_core(params, 0),
    )
    report = decomposition_report(params)
    payload = {k: v for k, v in vars(report).items() if k not in ("params", "genus_z")}
    payload["genus_by_core_dim"] = report.genus_z
    return identity_rows(report), payload


def cmd_atlas(args, params: CoverParams):
    # Refuse past the cap before build_action spends O(n^3) on an n x n matrix.
    check_cap(params.q, params.n, resolve_atlas_cap(args.cap), "orbit classification")
    action = build_action(params)
    classes = orbit_classes(params, cap=args.cap, action=action)
    class_count = len(classes)
    limit = args.limit if args.limit is not None else class_count
    # One pass in class order, popping each class off the reversed list once it
    # is counted, verified and rendered, so classes and rows are never all alive.
    # verify raises on a class that breaks an orbit invariant: size p, least
    # member first, the conjugation chain, core invariance, quantization, rank bound.
    classes.reverse()
    histogram: dict[int, int] = {}
    groups: dict[int, str] = {}
    rows = []
    while classes:
        cls = classes.pop()
        dim = cls.core_dim
        histogram[dim] = histogram.get(dim, 0) + 1
        cls.verify(action)
        if len(rows) == limit:
            continue
        group = groups.get(dim)
        if group is None:
            group = groups[dim] = f"Z_{params.q}^{params.n - dim} ⋊ Z_{params.p}"
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
    sub = subgroup_from_file(args.subgroup, params)
    if sub.dim != params.n - 1:
        raise InvalidParamsError(
            f"{args.subgroup} spans dimension {sub.dim}, not a maximal subgroup "
            f"of Z_{params.q}^{params.n}"
        )
    h = Hyperplane.from_subspace(sub)
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
        "exceeds_complement_range": report.exceeds_complement_range,
        "quotient_genus": genus_quotient_by_core(params, report.core_dim),
    }
    return [CheckResult("closure-order-condition", passed, detail)], payload


def cmd_reps(args, params: CoverParams):
    # |G| = p q^n, in the sum-of-squares row, is the largest value printed.
    _refuse_unprintable(
        math.log10(params.p) + params.n * math.log10(params.q), lambda: params.group_order
    )
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
        return _run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        hint = f"--cap {exc.required_text}"
        if args.subcommand == "atlas":
            hint += f" or set {ENV_ATLAS_CAP}={exc.required_text}"
        print(f"hint: re-run with {hint}", file=sys.stderr)
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
