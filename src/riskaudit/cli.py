"""Command-line interface.

Exit codes: 0 for success (and for "yes" answers), 1 for domain-negative
outcomes (not fair, nothing found, counterexample found, construction
infeasible), 2 for usage, parse, and validation errors.
"""
from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction
from typing import Optional

from .audit import audit_approx, audit_exact
from .errors import DocumentError, ReductionInfeasibleError, RiskAuditError
from .loss import fairness_difference, find_fair_nontrivial, interpolate, loss
from .model import as_fraction, derived_stats, ingest_records, require_valid, validate_instance
from .reduction import (
    SubsetSumInstance,
    check_reduction_equation,
    decode_partition,
    encode_solution,
    reduce_subset_sum,
    search_normal_forms,
    solve_subset_sum,
)
from .serialize import (
    approx_doc,
    assignment_to_doc,
    audit_doc,
    difference_doc,
    divergence_doc,
    dumps_doc,
    fmt_rational,
    instance_to_doc,
    loss_doc,
    parse_assignment,
    parse_instance,
    parse_reduced,
    records_from_csv,
    reduced_to_doc,
    solve_doc,
    sweep_doc,
    validation_doc,
)
from .solver import solve_integral
from .sweep import theorem_sweep

DEFAULT_TOLERANCE = Fraction(1, 10**9)


def _rational(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", path) from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(dumps_doc(doc))
    else:
        for line in text_lines:
            print(line)


def _audit_lines(doc: dict, prefix: str = "") -> list[str]:
    lines = [
        f"{prefix}calibration_ok: {_bool(doc['calibration_ok'])}",
        f"{prefix}expected_score_total: {doc['expected_score_total'][0]}, {doc['expected_score_total'][1]}",
        f"{prefix}pos_class_avg: {doc['pos_class_avg'][0]}, {doc['pos_class_avg'][1]}",
        f"{prefix}neg_class_avg: {doc['neg_class_avg'][0]}, {doc['neg_class_avg'][1]}",
        f"{prefix}balance_pos: ok={_bool(doc['balance_pos']['ok'])} vacuous={_bool(doc['balance_pos']['vacuous'])}",
        f"{prefix}balance_neg: ok={_bool(doc['balance_neg']['ok'])} vacuous={_bool(doc['balance_neg']['vacuous'])}",
        f"{prefix}parity_gap: {doc['parity_gap']}",
        f"{prefix}fair: {_bool(doc['fair'])}",
    ]
    return lines


def cmd_ingest(args) -> int:
    table = records_from_csv(_read(args.input))
    inst, div = ingest_records(table)
    _write(args.output, dumps_doc(instance_to_doc(inst)))
    doc = divergence_doc(div)
    lines = [f"features: {len(inst.features)}", f"max_deviation: {doc['max_deviation']}"]
    for e in doc["entries"]:
        lines.append(
            f"  {e['feature_id']} group {e['group']}: rate {e['group_rate']} deviation {e['deviation']}"
        )
    _emit(args, doc, lines)
    return 0


def cmd_audit(args) -> int:
    inst = require_valid(parse_instance(_read(args.instance)))
    asg = parse_assignment(_read(args.assignment))
    report = audit_exact(inst, asg)
    doc: dict = {"audit": audit_doc(report)}
    lines = _audit_lines(doc["audit"])
    verdict = report.fair
    if args.eps is not None:
        approx = audit_approx(inst, asg, args.eps)
        doc["approx"] = approx_doc(approx)
        a = doc["approx"]
        lines += [
            f"approx.epsilon: {a['epsilon']}",
            f"approx.calibration_ok: {_bool(a['calibration_ok'])}",
            f"approx.balance_pos: ok={_bool(a['balance_pos']['ok'])} vacuous={_bool(a['balance_pos']['vacuous'])}",
            f"approx.balance_neg: ok={_bool(a['balance_neg']['ok'])} vacuous={_bool(a['balance_neg']['vacuous'])}",
            f"approx.passed: {_bool(a['passed'])}",
            f"approx.consequence.slack: {a['consequence']['slack']}",
            f"approx.consequence.near_perfect_prediction: {_bool(a['consequence']['near_perfect_prediction'])}",
            f"approx.consequence.near_equal_base_rates: {_bool(a['consequence']['near_equal_base_rates'])}",
        ]
        verdict = approx.passed
    _emit(args, doc, lines)
    return 0 if verdict else 1


def cmd_loss(args) -> int:
    inst = require_valid(parse_instance(_read(args.instance)))
    asg = parse_assignment(_read(args.assignment))
    report = loss(inst, asg)
    doc = loss_doc(report)
    _emit(
        args,
        doc,
        [
            f"loss_group1: {doc['per_group'][0]}",
            f"loss_group2: {doc['per_group'][1]}",
            f"loss_total: {doc['total']}",
        ],
    )
    return 0


def cmd_interpolate(args) -> int:
    inst = require_valid(parse_instance(_read(args.instance)))
    first = parse_assignment(_read(args.first))
    second = parse_assignment(_read(args.second))
    result = interpolate(inst, first, second, args.weight)
    out_doc = assignment_to_doc(result)
    if args.output:
        _write(args.output, dumps_doc(out_doc))
    d = difference_doc(fairness_difference(inst, result))
    doc = {"difference": d, "assignment": out_doc}
    lines = [
        f"weight: {fmt_rational(as_fraction(args.weight))}",
        f"bins: {result.bin_count}",
        f"difference: {d['difference']}",
    ]
    if not args.output and args.format == "text":
        sys.stdout.write(dumps_doc(out_doc))
        return 0
    _emit(args, doc, lines)
    return 0


def cmd_find_fair(args) -> int:
    inst = require_valid(parse_instance(_read(args.instance)))
    candidates = [parse_assignment(_read(path)) for path in args.candidate]
    result = find_fair_nontrivial(inst, candidates)
    if result is None:
        _emit(args, {"found": False}, ["found: false"])
        return 1
    out_doc = assignment_to_doc(result)
    if args.output:
        _write(args.output, dumps_doc(out_doc))
        _emit(args, {"found": True, "assignment": out_doc}, ["found: true"])
    elif args.format == "json":
        _emit(args, {"found": True, "assignment": out_doc}, [])
    else:
        print("found: true")
        sys.stdout.write(dumps_doc(out_doc))
    return 0


def cmd_solve_integral(args) -> int:
    inst = require_valid(parse_instance(_read(args.instance)))
    objective = args.objective.replace("-", "_")
    result = solve_integral(inst, objective, cap=args.cap, tolerance=args.tolerance)
    doc = solve_doc(result)
    lines = [f"status: {doc['status']}", f"explored: {doc['explored']}", f"pruned: {doc['pruned']}"]
    if doc["partition"] is not None:
        rendered = " | ".join(",".join(block) for block in doc["partition"])
        lines.append(f"partition: {rendered}")
    if result.assignment is not None:
        lines.append(
            "scores: " + ", ".join(fmt_rational(v) for v in result.assignment.scores)
        )
    if doc["loss"] is not None:
        lines.append(f"loss_total: {doc['loss']['total']}")
    _emit(args, doc, lines)
    return 0 if result.status == "found" else 1


def cmd_reduce(args) -> int:
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("weights must be comma-separated integers")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ri = reduce_subset_sum(SubsetSumInstance(weights, args.target))
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    except ReductionInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    doc = reduced_to_doc(ri)
    if args.output:
        _write(args.output, dumps_doc(doc))
    lines = [
        f"pairs: {ri.m}",
        f"dropped: {len(ri.dropped_indices)}",
        f"required_pos_avg: {fmt_rational(ri.required_pos_avg)}",
        "rates: " + ", ".join(doc["rates"]),
    ]
    if not args.output and args.format == "text":
        sys.stdout.write(dumps_doc(doc))
        return 0
    _emit(args, doc, lines)
    return 0


def cmd_verify_reduction(args) -> int:
    ri = parse_reduced(_read(args.reduction))
    tol = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE

    gs = derived_stats(ri.instance)
    half_gap = max(abs(r - Fraction(1, 2)) for r in gs.base_rate)
    rates_ok = half_gap <= tol

    witness = search_normal_forms(ri)
    # weights above the target are in no solution, so the oracle scans the kept ones
    oracle = solve_subset_sum(SubsetSumInstance(ri.weights, ri.target))
    agree = (witness is None) == (oracle is None)

    decoded = None
    if witness is not None:
        decoded = sorted(decode_partition(ri, witness))

    doc = {
        "embedded_base_rates_ok": rates_ok,
        "witness_found": witness is not None,
        "decoded_subset": decoded,
        "oracle_solvable": oracle is not None,
        "oracle_subset": None if oracle is None else sorted(ri.kept_indices[i - 1] for i in oracle),
        "agreement": agree,
    }
    lines = [
        f"embedded_base_rates_ok: {_bool(rates_ok)}",
        f"witness_found: {_bool(witness is not None)}",
        f"decoded_subset: {decoded}",
        f"oracle_solvable: {_bool(oracle is not None)}",
        f"agreement: {_bool(agree)}",
    ]
    if args.subset:
        try:
            chosen = [int(x) for x in args.subset.split(",") if x.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError("subset must be comma-separated integers")
        part = encode_solution(ri, chosen)
        ok = check_reduction_equation(ri, part)
        doc["subset_check"] = {"subset": chosen, "equation_holds": ok}
        lines.append(f"subset {chosen}: equation_holds={_bool(ok)}")
    _emit(args, doc, lines)
    if not agree or not rates_ok:
        return 2
    return 0 if oracle is not None else 1


def cmd_theorem_sweep(args) -> int:
    inst = require_valid(parse_instance(_read(args.instance)))
    report = theorem_sweep(
        inst, args.budget, args.eps, args.seed, integral_cap=args.cap
    )
    doc = sweep_doc(report)
    lines = [
        f"seed: {doc['seed']}",
        f"epsilon: {doc['epsilon']}",
        f"base_rate_gap: {doc['base_rate_gap']}",
        f"perfect_prediction: {_bool(doc['perfect_prediction'])}",
        f"integral_explored: {doc['integral_explored']} complete={_bool(doc['integral_complete'])}",
        f"fractional_explored: {doc['fractional_explored']}",
        f"exact_fair_count: {doc['exact_fair_count']}",
        f"exact_counterexample: {_bool(doc['exact_counterexample'] is not None)}",
        f"approx_pass_count: {doc['approx_pass_count']}",
        f"approx_counterexample: {_bool(doc['approx_counterexample'] is not None)}",
    ]
    _emit(args, doc, lines)
    bad = report.exact_counterexample is not None or report.approx_counterexample is not None
    return 1 if bad else 0


def cmd_validate(args) -> int:
    inst = parse_instance(_read(args.instance))
    report = validate_instance(inst)
    doc = validation_doc(report)
    lines = [f"ok: {_bool(report.ok)}"] + [f"  {v}" for v in report.violations]
    _emit(args, doc, lines)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskaudit",
        description="Exact fairness audits and constructions for risk assignments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="build an instance from outcome records")
    p.add_argument("-i", "--input", required=True, help="CSV of feature_id,group,outcome")
    p.add_argument("-o", "--output", required=True, help="instance document to write")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", parents=[common], help="validate an instance document")
    p.add_argument("-i", "--instance", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("audit", parents=[common], help="audit the fairness conditions")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-a", "--assignment", required=True)
    p.add_argument("--eps", type=_rational, default=None, help="also run the relaxed audit")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("loss", parents=[common], help="expected loss of an assignment")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-a", "--assignment", required=True)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("interpolate", parents=[common], help="mix two calibrated assignments")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-a", "--first", required=True)
    p.add_argument("-b", "--second", required=True)
    p.add_argument("-w", "--weight", type=_rational, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser(
        "find-fair", parents=[common], help="fair non-trivial assignment from candidates"
    )
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-c", "--candidate", action="append", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_find_fair)

    p = sub.add_parser(
        "solve-integral", parents=[common], help="search partitions for a fair assignment"
    )
    p.add_argument("-i", "--instance", required=True)
    p.add_argument(
        "--objective", choices=("any-fair", "min-loss"), default="any-fair"
    )
    p.add_argument("--cap", type=int, default=None, help="most partitions to search")
    p.add_argument("--tolerance", type=_rational, default=None, help="absolute residual tolerance")
    p.set_defaults(func=cmd_solve_integral)

    p = sub.add_parser("reduce", parents=[common], help="embed a subset-sum instance")
    p.add_argument("--weights", required=True, help="comma-separated positive integers")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "verify-reduction", parents=[common], help="check a reduction against the oracle"
    )
    p.add_argument("-r", "--reduction", required=True)
    p.add_argument("--subset", default=None, help="comma-separated weight positions to test")
    p.add_argument("--tolerance", type=_rational, default=None, help="absolute residual tolerance")
    p.set_defaults(func=cmd_verify_reduction)

    p = sub.add_parser(
        "theorem-sweep", parents=[common], help="seeded search for trade-off violations"
    )
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--eps", type=_rational, default=Fraction(0))
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True, help="seed of the fractional stream")
    p.add_argument("--cap", type=int, default=None, help="most partitions to search")
    p.set_defaults(func=cmd_theorem_sweep)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RiskAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())
