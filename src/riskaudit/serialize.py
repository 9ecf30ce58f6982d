"""Versioned JSON documents and CSV ingestion.

Rationals travel as "a/b" strings (integers as plain digit strings) and are
parsed back exactly; decimal literals in documents are converted at their
decimal value, so "0.1" means 1/10. Floats appear only in reduction output,
rendered with 17 significant digits next to the exact fields that define
them.
"""
from __future__ import annotations

import csv
import io
import json
import warnings
from fractions import Fraction
from typing import Any, Optional

from .audit import ApproxAuditReport, AuditReport, ConsequenceFlags
from .errors import DocumentError, InvalidAssignmentError
from .loss import FairnessDifference, LossReport
from .model import (
    DivergenceReport,
    FeatureVector,
    Instance,
    Record,
    RecordTable,
    RiskAssignment,
    ValidationReport,
    _LiteralTooLong,
    _MAX_DIGITS,
    as_fraction,
)
from .reduction import ReducedInstance, SubsetSumInstance, reduce_subset_sum
from .solver import SolveResult
from .sweep import SweepReport

SCHEMA_VERSION = "1"


class _TooLong:
    """Stands in for a JSON number too long to hold (see model._parse_literal),
    so that the field reading it names its path."""

    def __repr__(self) -> str:
        return f"<number with more than {_MAX_DIGITS} digits>"


def _number(literal: str, kind=Fraction):
    try:
        return kind(as_fraction(literal))
    except _LiteralTooLong:
        return _TooLong()


def loads_json(text: str) -> Any:
    try:
        return json.loads(text, parse_float=_number, parse_int=lambda literal: _number(literal, int))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("JSON nested too deeply") from None


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def fmt_rational(x: Fraction) -> str:
    return str(x)


def _opt(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else fmt_rational(x)


def parse_rational(node: Any, path: str) -> Fraction:
    if isinstance(node, bool):
        raise DocumentError("expected a rational, got a boolean", path)
    if isinstance(node, str):
        try:
            node = as_fraction(node)
        except ValueError as exc:
            raise DocumentError(str(exc), path) from None
    if isinstance(node, _TooLong):
        raise DocumentError(str(_LiteralTooLong()), path)
    if isinstance(node, (Fraction, int)):
        return Fraction(node)
    raise DocumentError(f"expected a rational, got {type(node).__name__}", path)


def _require_version(doc: Any, path: str = "") -> dict:
    if not isinstance(doc, dict):
        raise DocumentError("expected a JSON object", path)
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported document version {version!r}", path + ".version")
    return doc


# -- instance documents -------------------------------------------------------

def instance_to_doc(inst: Instance) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "features": [
            {
                "id": f.id,
                "p": fmt_rational(f.p),
                "counts": {"1": fmt_rational(f.n1), "2": fmt_rational(f.n2)},
            }
            for f in inst.features
        ],
    }


def instance_from_doc(doc: Any) -> Instance:
    doc = _require_version(doc)
    raw = doc.get("features")
    if not isinstance(raw, list):
        raise DocumentError("expected a list", ".features")
    feats = []
    seen = set()
    for i, node in enumerate(raw):
        path = f".features[{i}]"
        if not isinstance(node, dict):
            raise DocumentError("expected an object", path)
        fid = node.get("id")
        if not isinstance(fid, str) or not fid:
            raise DocumentError("feature id must be a nonempty string", path + ".id")
        if fid in seen:
            raise DocumentError(f"duplicate feature id {fid!r}", path + ".id")
        seen.add(fid)
        p = parse_rational(node.get("p"), path + ".p")
        counts = node.get("counts")
        if not isinstance(counts, dict):
            raise DocumentError("expected a counts object", path + ".counts")
        n1 = parse_rational(counts.get("1", 0), path + ".counts.1")
        n2 = parse_rational(counts.get("2", 0), path + ".counts.2")
        feats.append(FeatureVector(fid, p, n1, n2))
    return Instance(tuple(feats))


def parse_instance(text: str) -> Instance:
    return instance_from_doc(loads_json(text))


# -- assignment documents -----------------------------------------------------

def assignment_to_doc(asg: RiskAssignment) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "bins": [
            {
                "score": fmt_rational(asg.scores[b]),
                "allocation": {
                    fid: fmt_rational(asg.rows[i][b])
                    for i, fid in enumerate(asg.feature_ids)
                },
            }
            for b in range(asg.bin_count)
        ],
    }


def assignment_from_doc(doc: Any) -> RiskAssignment:
    doc = _require_version(doc)
    raw = doc.get("bins")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("expected a nonempty list", ".bins")
    scores = []
    allocations = []
    order: list[str] = []
    for b, node in enumerate(raw):
        path = f".bins[{b}]"
        if not isinstance(node, dict):
            raise DocumentError("expected an object", path)
        scores.append(parse_rational(node.get("score"), path + ".score"))
        alloc = node.get("allocation")
        if not isinstance(alloc, dict):
            raise DocumentError("expected an allocation object", path + ".allocation")
        parsed = {}
        for fid, value in alloc.items():
            parsed[fid] = parse_rational(value, path + f".allocation.{fid}")
            if fid not in order:
                order.append(fid)
        allocations.append(parsed)
    rows = tuple(
        tuple(alloc.get(fid, Fraction(0)) for alloc in allocations) for fid in order
    )
    try:
        return RiskAssignment(
            feature_ids=tuple(order), scores=tuple(scores), rows=rows
        )
    except InvalidAssignmentError as exc:
        raise DocumentError(str(exc), ".bins") from None


def parse_assignment(text: str) -> RiskAssignment:
    return assignment_from_doc(loads_json(text))


# -- reduction documents ------------------------------------------------------

def reduced_to_doc(ri: ReducedInstance) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "kind": "reduction",
        "weights": list(ri.input_weights),
        "target": ri.target,
        "m": ri.m,
        "kept_indices": list(ri.kept_indices),
        "dropped_indices": list(ri.dropped_indices),
        "scaled_weights": [fmt_rational(w) for w in ri.scaled_weights],
        "required_pos_avg": fmt_rational(ri.required_pos_avg),
        "rates": [f"{r:.17g}" for r in ri.rates],
        "rate_structure": [
            {
                "center": fmt_rational(r.center),
                "half_gap_squared": fmt_rational(r.half_gap_squared),
                "sign": r.sign,
            }
            for r in ri.rates_exact
        ],
        "group1_mass": [fmt_rational(x) for x in ri.group1_mass],
        "group2_mass": [fmt_rational(x) for x in ri.group2_mass],
    }


def reduced_from_doc(doc: Any) -> ReducedInstance:
    doc = _require_version(doc)
    if doc.get("kind") != "reduction":
        raise DocumentError("expected kind \"reduction\"", ".kind")
    weights = doc.get("weights")
    target = doc.get("target")
    if not isinstance(weights, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) for w in weights
    ):
        raise DocumentError("expected a list of integers", ".weights")
    if not isinstance(target, int) or isinstance(target, bool):
        raise DocumentError("expected an integer", ".target")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ri = reduce_subset_sum(SubsetSumInstance(tuple(weights), target))
    stored = doc.get("scaled_weights", [])
    if not isinstance(stored, list):
        raise DocumentError("expected a list", ".scaled_weights")
    stored = [parse_rational(w, ".scaled_weights") for w in stored]
    if stored != list(ri.scaled_weights):
        raise DocumentError("scaled weights disagree with the construction", ".scaled_weights")
    if parse_rational(doc.get("required_pos_avg"), ".required_pos_avg") != ri.required_pos_avg:
        raise DocumentError(
            "required positive-class average disagrees with the construction",
            ".required_pos_avg",
        )
    if doc.get("m") != ri.m:
        raise DocumentError("pair count disagrees with the construction", ".m")
    return ri


def parse_reduced(text: str) -> ReducedInstance:
    return reduced_from_doc(loads_json(text))


# -- CSV records --------------------------------------------------------------

CSV_HEADER = ("feature_id", "group", "outcome")


def records_from_csv(text: str) -> RecordTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DocumentError("empty CSV") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DocumentError(
            f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise DocumentError(f"line {lineno}: expected 3 columns, got {len(row)}")
        fid = row[0].strip()
        if not fid:
            raise DocumentError(f"line {lineno}: empty feature id")
        try:
            group = int(row[1])
        except ValueError:
            raise DocumentError(f"line {lineno}: group must be 1 or 2") from None
        if group not in (1, 2):
            raise DocumentError(f"line {lineno}: group must be 1 or 2")
        outcome = row[2].strip()
        if outcome not in ("0", "1"):
            raise DocumentError(f"line {lineno}: outcome must be 0 or 1")
        rows.append(Record(fid, group, outcome == "1"))
    if not rows:
        raise DocumentError("CSV contains no data rows")
    return RecordTable(tuple(rows))


# -- report documents ---------------------------------------------------------

def validation_doc(report: ValidationReport) -> dict:
    return {"ok": report.ok, "violations": list(report.violations)}


def audit_doc(report: AuditReport) -> dict:
    return {
        "calibration_ok": report.calibration_ok,
        "calibration_residuals": [
            [fmt_rational(r) for r in per_group]
            for per_group in report.calibration_residuals
        ],
        "expected_score_total": [fmt_rational(x) for x in report.expected_score_total],
        "pos_class_avg": [_opt(x) for x in report.pos_class_avg],
        "neg_class_avg": [_opt(x) for x in report.neg_class_avg],
        "balance_pos": {"ok": report.balance_pos_ok, "vacuous": report.balance_pos_vacuous},
        "balance_neg": {"ok": report.balance_neg_ok, "vacuous": report.balance_neg_vacuous},
        "parity_gap": fmt_rational(report.parity_gap),
        "fair": report.fair,
    }


def consequence_doc(flags: ConsequenceFlags) -> dict:
    return {
        "slack": fmt_rational(flags.slack),
        "near_perfect_prediction": flags.near_perfect_prediction,
        "near_equal_base_rates": flags.near_equal_base_rates,
    }


def approx_doc(report: ApproxAuditReport) -> dict:
    return {
        "epsilon": fmt_rational(report.epsilon),
        "calibration_ok": report.calibration_ok,
        "balance_pos": {"ok": report.balance_pos_ok, "vacuous": report.balance_pos_vacuous},
        "balance_neg": {"ok": report.balance_neg_ok, "vacuous": report.balance_neg_vacuous},
        "passed": report.passed,
        "consequence": consequence_doc(report.consequence),
    }


def loss_doc(report: LossReport) -> dict:
    return {
        "per_group": [fmt_rational(x) for x in report.per_group],
        "total": fmt_rational(report.total),
    }


def difference_doc(diff: FairnessDifference) -> dict:
    return {
        "difference": fmt_rational(diff.difference),
        "favors_group1": diff.favors_group1,
        "favors_group2": diff.favors_group2,
    }


def divergence_doc(report: DivergenceReport) -> dict:
    return {
        "entries": [
            {
                "feature_id": e.feature_id,
                "group": e.group,
                "group_rate": fmt_rational(e.group_rate),
                "deviation": fmt_rational(e.deviation),
            }
            for e in report.entries
        ],
        "max_deviation": fmt_rational(report.max_deviation),
    }


def solve_doc(result: SolveResult) -> dict:
    return {
        "status": result.status,
        "explored": result.explored,
        "pruned": result.pruned,
        "partition": None
        if result.partition is None
        else [list(block) for block in result.partition.blocks],
        "assignment": None
        if result.assignment is None
        else assignment_to_doc(result.assignment),
        "loss": None if result.loss_report is None else loss_doc(result.loss_report),
    }


def sweep_doc(report: SweepReport) -> dict:
    def witness(asg: Optional[RiskAssignment]):
        return None if asg is None else assignment_to_doc(asg)

    return {
        "seed": report.seed,
        "epsilon": fmt_rational(report.epsilon),
        "budget": report.budget,
        "base_rate_gap": fmt_rational(report.base_rate_gap),
        "perfect_prediction": report.perfect_prediction,
        "integral_explored": report.integral_explored,
        "integral_complete": report.integral_complete,
        "fractional_explored": report.fractional_explored,
        "exact_fair_count": report.exact_fair_count,
        "first_exact_fair": witness(report.first_exact_fair),
        "exact_counterexample": witness(report.exact_counterexample),
        "approx_pass_count": report.approx_pass_count,
        "approx_counterexample": witness(report.approx_counterexample),
    }
