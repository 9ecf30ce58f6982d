"""Versioned JSON documents and CSV ingestion.

Rationals travel as "a/b" strings (integers as plain digit strings) and are
parsed back exactly; decimal literals in documents are converted at their
decimal value, so "0.1" means 1/10; every value written is exact. A report
record becomes its document by one rule, `report_doc`: its fields in order,
under their own names; only the audit, search and divergence reports lay
theirs out on top of it.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .errors import DocumentError, DomainError, InvalidAssignmentError
from .model import (
    DivergenceReport,
    FeatureVector,
    Instance,
    Record,
    RecordTable,
    RiskAssignment,
    _LiteralTooLong,
    _MAX_DIGITS,
    _require_type,
    as_fraction,
)

if TYPE_CHECKING:
    from .audit import ApproxAuditReport, AuditReport
    from .reduction import ReducedInstance
    from .solver import SolveResult

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


def _undecodable(exc: UnicodeDecodeError) -> str:
    """What is wrong with bytes that do not decode, and where."""
    return f"not {exc.encoding.upper()} text ({exc.reason} at byte {exc.start})"


def loads_json(text: str) -> Any:
    if not isinstance(text, (str, bytes, bytearray)):
        raise DomainError(f"text must be a str, bytes or bytearray, not {text!r:.60}")
    try:
        return json.loads(text, parse_float=_number, parse_int=lambda literal: _number(literal, int))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from None
    except UnicodeDecodeError as exc:  # bytes, read as UTF-8, -16 or -32 by their first bytes
        raise DocumentError(_undecodable(exc)) from None
    except RecursionError:
        raise DocumentError("JSON nested too deeply") from None


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def fmt_rational(x: Fraction) -> str:
    """x as "a/b", or as an integer's digits; a value with a part past
    _MAX_DIGITS digits has no text form and is refused with DomainError."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(f"a value with more than {_MAX_DIGITS} digits cannot be written") from None


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
    _require_type(inst, Instance)
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
    _require_type(asg, RiskAssignment)
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
    order: dict[str, None] = {}  # feature ids, first seen first
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
            order[fid] = None
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
    from .reduction import ReducedInstance

    _require_type(ri, ReducedInstance)
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
    from .reduction import SubsetSumInstance, reduce_subset_sum

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
    ri = reduce_subset_sum(SubsetSumInstance(tuple(weights), target))
    for key, value in reduced_to_doc(ri).items():
        if not _same_value(doc.get(key), value, "." + key):
            raise DocumentError("disagrees with the construction", "." + key)
    return ri


def _same_value(node: Any, value: Any, path: str) -> bool:
    """Whether a document node holds `value`, a node as `reduced_to_doc`
    writes it: rationals compare by value, so "2/96" holds "1/48"."""
    if isinstance(value, list):
        same = isinstance(node, list) and len(node) == len(value)
        return same and all(_same_value(n, v, path) for n, v in zip(node, value))
    if isinstance(value, dict):
        return isinstance(node, dict) and all(_same_value(node.get(k), v, path) for k, v in value.items())
    if node == value:
        return True
    return isinstance(value, str) and parse_rational(node, path) == parse_rational(value, path)


def parse_reduced(text: str) -> ReducedInstance:
    return reduced_from_doc(loads_json(text))


# -- CSV records --------------------------------------------------------------

CSV_HEADER = ("feature_id", "group", "outcome")


def records_from_csv(text: str) -> RecordTable:
    if not isinstance(text, str):
        raise DomainError(f"text must be a str, not {text!r:.60}")
    reader = csv.reader(io.StringIO(text))
    try:
        return _records(reader)
    except csv.Error as exc:  # a field longer than csv.field_size_limit(), for one
        raise DocumentError(f"line {reader.line_num}: {exc}") from None


def _records(reader) -> RecordTable:
    try:
        header = next(reader)
    except StopIteration:
        raise DocumentError("empty CSV") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DocumentError(
            f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    rows = []
    for row in reader:
        lineno = reader.line_num  # the record's last physical line: a quoted field may span lines
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

def report_doc(value: Any) -> Any:
    """A report record as its document, by one rule: a record (a NamedTuple)
    becomes an object of its fields in order, a Fraction its `fmt_rational`
    string, any other tuple a list, an assignment its `assignment_to_doc`;
    None, bools, ints and strings stay as they are. A field added to a record
    reaches its document with no edit here."""
    if isinstance(value, Fraction):
        return fmt_rational(value)
    if isinstance(value, RiskAssignment):
        return assignment_to_doc(value)
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            return {name: report_doc(x) for name, x in zip(value._fields, value)}
        return [report_doc(x) for x in value]
    return value


def audit_doc(report: AuditReport | ApproxAuditReport) -> dict:
    """An exact or relaxed audit report's document: `report_doc`, with each
    balance condition's ok/vacuous pair nested as {"ok", "vacuous"} in its
    place."""
    doc: dict = {}
    for key, value in report_doc(report).items():
        if key.startswith("balance_"):
            condition, _, flag = key.rpartition("_")
            doc.setdefault(condition, {})[flag] = value
        else:
            doc[key] = value
    return doc


def divergence_doc(report: DivergenceReport) -> dict:
    return {**report_doc(report), "max_deviation": fmt_rational(report.max_deviation)}


def solve_doc(result: SolveResult) -> dict:
    """A search result's document: its own key order, the partition as lists
    of feature ids, and the loss report under "loss"."""
    part = result.partition
    return {
        "status": result.status,
        "explored": result.explored,
        "pruned": result.pruned,
        "partition": None if part is None else report_doc(part.blocks),
        "assignment": report_doc(result.assignment),
        "loss": report_doc(result.loss_report),
    }
