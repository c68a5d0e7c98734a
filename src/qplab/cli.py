"""Command-line front end: verification runs, coefficient tables, family
exploration and machine-readable exports.

Exit status contract: 0 when everything requested passes, 1 when at least
one report's verdict is FAIL, 2 for usage errors.  The environment variable
QPLAB_MAX_ORDER caps every requested order and `enum --n`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .series import SeriesError
from . import partitions, recipes, registry
from .mocktheta import MockThetaForm
from .recipes import FamilyGF, Theta

MAX_ORDER_ENV = "QPLAB_MAX_ORDER"


def _order_cap() -> Optional[int]:
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise SystemExit(f"error: {MAX_ORDER_ENV} must be an integer, got {raw!r}")
    return max(cap, 0)


def _capped(order: int) -> int:
    cap = _order_cap()
    return order if cap is None else min(order, cap)


def _too_large(order: int) -> str:
    return f"error: order {order} is too large to evaluate in memory"


# ----------------------------------------------------------------------
# verify

def _format_report(report: registry.IdentityReport) -> str:
    verdict, detail, m = report.verdict, "", report.mismatch
    if m is not None:
        detail = f"  mismatch at n={m.index}: lhs={m.lhs} rhs={m.rhs}"
        if verdict == "XFAIL":
            detail += " (expected)"
    return (
        f"{verdict:<6} {report.id:<34} order={report.order_checked:<4}"
        f" {report.elapsed_ms:>5}ms{detail}"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.order is not None and args.order < 1:
        print("error: --order must be at least 1", file=sys.stderr)
        return 2
    order = None if args.order is None else _capped(args.order)
    try:
        if args.id is not None:
            reports = [registry.verify(args.id, order)]
        else:
            reports = registry.verify_all(order)
    except registry.RegistryError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        print(_too_large(order), file=sys.stderr)
        return 2

    verdicts = [r.verdict for r in reports]
    if args.json:
        docs = [r.to_json_dict() for r in reports]
        print(json.dumps(docs[0] if args.id is not None else docs, indent=2))
    else:
        for r in reports:
            print(_format_report(r))
        summary = f"{verdicts.count('PASS')} passed, {verdicts.count('FAIL')} failed"
        if "XFAIL" in verdicts:
            summary += f", {verdicts.count('XFAIL')} expected mismatch (negative control)"
        print(summary)
    return 1 if "FAIL" in verdicts else 0


# ----------------------------------------------------------------------
# coeffs

_NAMED_TARGETS = {
    "omega": MockThetaForm("omega"),
    "psi": MockThetaForm("psi"),
    "nu": MockThetaForm("nu"),
    "nu-neg": MockThetaForm("nu", argument_sign=-1),
    "theta": Theta(),
    "theta-alt": Theta(alternating=True),
}


def _coeff_target(target: str) -> recipes.Recipe:
    """The recipe a --target value names."""
    if target in _NAMED_TARGETS:
        return _NAMED_TARGETS[target]
    if target.startswith("family:"):
        parts = target.split(":")
        if len(parts) == 2 or parts[2:] == ["signed"]:
            return FamilyGF(parts[1], signed=len(parts) == 3)
        raise KeyError(f"malformed family target {target!r}")
    if target.startswith("rational:"):
        return recipes.parse(target[len("rational:"):])
    raise KeyError(f"unknown coefficient target {target!r}")


def _cmd_coeffs(args: argparse.Namespace) -> int:
    if args.order < 0:
        print("error: --order must be nonnegative", file=sys.stderr)
        return 2
    order = _capped(args.order)
    try:
        series = recipes.evaluate(_coeff_target(args.target), order)
    except (KeyError, recipes.ParseError, SeriesError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        print(_too_large(order), file=sys.stderr)
        return 2
    try:
        coeffs = [str(c) for c in series.coeffs]
    except ValueError:  # beyond the interpreter's int-to-text digit limit
        print("error: a coefficient has too many digits to print", file=sys.stderr)
        return 2
    if args.csv:
        for n, c in enumerate(coeffs):  # rows in place: no second list of digits
            coeffs[n] = f"{n},{c}"
        print("\n".join(["n,coefficient", *coeffs]))
    elif args.json:
        print(
            json.dumps(
                {
                    "target": args.target,
                    "order": order,
                    "coefficients": coeffs,
                },
                indent=2,
            )
        )
    else:
        print(",".join(coeffs))
    return 0


# ----------------------------------------------------------------------
# enum

def _cmd_enum(args: argparse.Namespace) -> int:
    if args.family not in partitions.FAMILIES:
        print(
            f"error: unknown family {args.family!r}; choose from {', '.join(partitions.FAMILIES)}",
            file=sys.stderr,
        )
        return 2
    # only the listing grows like exp(c sqrt(n)); the counts take O(n^2)
    limit = _capped(partitions.DEFAULT_ENUMERATION_BUDGET) if args.list else _order_cap()
    if args.n < 0 or (limit is not None and args.n > limit):
        span = "be nonnegative" if limit is None else f"lie in 0..{limit}"
        print(f"error: --n must {span}{' with --list' if args.list else ''}", file=sys.stderr)
        return 2
    spec = partitions.FAMILIES[args.family]
    weighted = {}
    try:
        if args.stats:
            # the split counts hold the plain count and the counts weighted by
            # the parity of the number of even parts and of all parts
            x0, x1, x2, x3 = partitions.statistic_counts(spec, args.n)
            unsigned = x0 + x1
            weighted = {partitions.WEIGHT_EVEN_PARTS: x0 - x1, partitions.WEIGHT_ALL_PARTS: x2 - x3}
        else:
            unsigned = partitions.count_family(spec, args.n, use_weight=False)
        if spec.weight in weighted:
            signed = weighted[spec.weight]
        else:
            signed = partitions.count_family(spec, args.n, use_weight=True)
    except (MemoryError, OverflowError):
        print(_too_large(args.n), file=sys.stderr)
        return 2
    print(f"family {args.family} n={args.n}")
    print(f"count {unsigned}")
    print(f"weighted {signed}")
    if args.stats:
        name = args.family
        print(f"{name}0={x0} {name}1={x1} {name}2={x2} {name}3={x3}")
    if args.list:
        sys.stdout.writelines(f"{p.text()}\n" for p in partitions.enumerate_family(spec, args.n))
    return 0


# ----------------------------------------------------------------------
# identities

def _cmd_identities(args: argparse.Namespace) -> int:
    cases = registry.list_identities()
    if args.json:
        docs = []
        for c in cases:
            lhs, rhs = registry.describe_sides(c)
            docs.append(
                {
                    "id": c.id,
                    "description": c.description,
                    "source": c.source,
                    "notes": c.notes,
                    "negative_control": c.negative_control,
                    "enumeration_backed": c.enumeration_backed,
                    "default_order": c.default_order,
                    "lhs": lhs,
                    "rhs": rhs,
                }
            )
        print(json.dumps(docs, indent=2))
    else:
        for c in cases:
            marker = "*" if c.negative_control else " "
            print(f"{c.id:<34}{marker} {c.description}")
    return 0


# ----------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplab",
        description=(
            "Exact q-series laboratory: verify the identity catalog, print "
            "coefficient tables, and explore two-color partition families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity checks")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="verify a single identity by id")
    group.add_argument("--all", action="store_true", help="verify every identity")
    p_verify.add_argument("--order", type=int, default=None, help="truncation order")
    p_verify.add_argument("--json", action="store_true", help="emit JSON reports")
    p_verify.set_defaults(func=_cmd_verify)

    p_coeffs = sub.add_parser("coeffs", help="print coefficient tables")
    p_coeffs.add_argument(
        "--target",
        required=True,
        help=(
            "omega | psi | nu | nu-neg | theta | theta-alt | "
            "family:<name>[:signed] | rational:<expression>"
        ),
    )
    p_coeffs.add_argument("--order", type=int, default=20, help="truncation order")
    fmt = p_coeffs.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="CSV rows n,coefficient")
    fmt.add_argument("--json", action="store_true", help="JSON document")
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_enum = sub.add_parser("enum", help="count and list family partitions")
    p_enum.add_argument("--family", required=True, help="|".join(partitions.FAMILIES))
    p_enum.add_argument("--n", type=int, required=True, help="the partitioned integer")
    p_enum.add_argument("--list", action="store_true", help="print every partition")
    p_enum.add_argument(
        "--stats", action="store_true", help="split counts by even-part and length parity"
    )
    p_enum.set_defaults(func=_cmd_enum)

    p_ids = sub.add_parser("identities", help="list the identity catalog")
    p_ids.add_argument("--json", action="store_true", help="include recipes and notes")
    p_ids.set_defaults(func=_cmd_identities)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
