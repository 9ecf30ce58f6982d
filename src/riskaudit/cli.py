"""Command-line interface.

Exit codes: 0 for success (and for "yes" answers), 1 for domain-negative
outcomes (not fair, nothing found, counterexample found, construction
infeasible), 2 for usage, parse, and validation errors.

Each command imports the audit, search or reduction code it calls, so a
process loads only the modules of the command it runs.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import DocumentError, ReductionInfeasibleError, RiskAuditError
from .model import as_fraction, ingest_records, require_valid, validate_instance
from .serialize import (
    _undecodable,
    assignment_to_doc,
    audit_doc,
    divergence_doc,
    dumps_doc,
    fmt_rational,
    instance_to_doc,
    parse_assignment,
    parse_instance,
    parse_reduced,
    records_from_csv,
    reduced_to_doc,
    report_doc,
    solve_doc,
)

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
        raise DocumentError(_undecodable(exc), path) from None


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


def _deliver(args, out_doc: dict, doc: dict, lines: list[str]) -> None:
    """Deliver a command's built document: with --output, write it there and
    emit the command's report, `doc` and its text `lines`; without, text
    format prints the whole document instead. The report is built before
    the write, so a command that fails writes no file."""
    if args.output is not None:
        _write(args.output, dumps_doc(out_doc))
    if args.output is not None or args.format == "json":
        _emit(args, doc, lines)
    else:
        sys.stdout.write(dumps_doc(out_doc))


def _text(value) -> str:
    if isinstance(value, bool):
        return _bool(value)
    if isinstance(value, list):
        return ", ".join(map(_text, value))
    if isinstance(value, dict):
        return " ".join(f"{k}={_text(v)}" for k, v in value.items())
    return str(value)


def _doc_lines(doc: dict, prefix: str = "") -> list[str]:
    """A report document as text, by one rule: each field in order as
    `key: value`, a list joined with ", ", a record of flags only (a balance
    condition's ok/vacuous pair) as `flag=value` pairs, any other nested
    record as one `key.field` line per field. A table (a list of lists) is
    left to the JSON form."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict) and not all(isinstance(v, bool) for v in value.values()):
            lines += _doc_lines(value, f"{prefix}{key}.")
        elif not (isinstance(value, list) and any(isinstance(x, list) for x in value)):
            lines.append(f"{prefix}{key}: {_text(value)}")
    return lines


def cmd_ingest(args) -> int:
    table = records_from_csv(_read(args.input))
    inst, div = ingest_records(table)
    out_doc, doc = instance_to_doc(inst), divergence_doc(div)
    lines = [f"features: {len(inst.features)}", f"max_deviation: {doc['max_deviation']}"]
    for e in doc["entries"]:
        lines.append(
            f"  {e['feature_id']} group {e['group']}: rate {e['group_rate']} deviation {e['deviation']}"
        )
    _deliver(args, out_doc, doc, lines)
    return 0


def cmd_audit(args) -> int:
    from .audit import audit_approx, audit_exact

    inst = require_valid(parse_instance(_read(args.instance)))
    asg = parse_assignment(_read(args.assignment))
    report = audit_exact(inst, asg)
    doc: dict = {"audit": audit_doc(report)}
    lines = _doc_lines(doc["audit"])
    verdict = report.fair
    if args.eps is not None:
        approx = audit_approx(inst, asg, args.eps)
        doc["approx"] = audit_doc(approx)
        lines += _doc_lines(doc["approx"], "approx.")
        verdict = approx.passed
    _emit(args, doc, lines)
    return 0 if verdict else 1


def cmd_loss(args) -> int:
    from .loss import loss

    inst = require_valid(parse_instance(_read(args.instance)))
    asg = parse_assignment(_read(args.assignment))
    report = loss(inst, asg)
    doc = report_doc(report)
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
    from .loss import fairness_difference, interpolate

    inst = require_valid(parse_instance(_read(args.instance)))
    first = parse_assignment(_read(args.first))
    second = parse_assignment(_read(args.second))
    result = interpolate(inst, first, second, args.weight)
    out_doc = assignment_to_doc(result)
    d = report_doc(fairness_difference(inst, result))
    lines = [
        f"weight: {fmt_rational(args.weight)}",
        f"bins: {result.bin_count}",
        f"difference: {d['difference']}",
    ]
    _deliver(args, out_doc, {"difference": d, "assignment": out_doc}, lines)
    return 0


def cmd_find_fair(args) -> int:
    from .loss import find_fair_nontrivial

    inst = require_valid(parse_instance(_read(args.instance)))
    candidates = [parse_assignment(_read(path)) for path in args.candidate]
    result = find_fair_nontrivial(inst, candidates)
    if result is None:
        _emit(args, {"found": False}, ["found: false"])
        return 1
    out_doc = assignment_to_doc(result)
    if args.output is None and args.format == "text":
        print("found: true")
    _deliver(args, out_doc, {"found": True, "assignment": out_doc}, ["found: true"])
    return 0


def cmd_solve_integral(args) -> int:
    from .solver import solve_integral

    inst = require_valid(parse_instance(_read(args.instance)))
    objective = args.objective.replace("-", "_")
    result = solve_integral(inst, objective, cap=args.cap)
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
    from .reduction import SubsetSumInstance, reduce_subset_sum

    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("weights must be comma-separated integers")
    try:
        ri = reduce_subset_sum(SubsetSumInstance(weights, args.target))
    except ReductionInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    if ri.dropped_indices:
        positions = list(ri.dropped_indices)
        print(f"warning: dropping weights above the target at positions {positions}", file=sys.stderr)
    doc = reduced_to_doc(ri)
    lines = [
        f"pairs: {ri.m}",
        f"dropped: {len(ri.dropped_indices)}",
        f"required_pos_avg: {fmt_rational(ri.required_pos_avg)}",
    ]
    _deliver(args, doc, doc, lines)
    return 0


def cmd_verify_reduction(args) -> int:
    from .reduction import (
        SubsetSumInstance,
        _base_rates_are_half,
        check_reduction_equation,
        decode_partition,
        encode_solution,
        search_normal_forms,
        solve_subset_sum,
    )

    ri = parse_reduced(_read(args.reduction))
    rates_ok = _base_rates_are_half(ri)
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
    from .sweep import theorem_sweep

    inst = require_valid(parse_instance(_read(args.instance)))
    report = theorem_sweep(
        inst, args.budget, args.eps, args.seed, integral_cap=args.cap
    )
    doc = report_doc(report)
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
    doc = report_doc(report)
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
    except (argparse.ArgumentTypeError, RiskAuditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())
