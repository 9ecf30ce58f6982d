import json
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskaudit import (
    DocumentError,
    SubsetSumInstance,
    assignment_from_doc,
    assignment_to_doc,
    dumps_doc,
    identity_assignment,
    instance_from_doc,
    instance_to_doc,
    loads_json,
    parse_assignment,
    parse_instance,
    parse_rational,
    parse_reduced,
    records_from_csv,
    reduce_subset_sum,
    reduced_from_doc,
    reduced_to_doc,
)


class TestRational:
    def test_accepts(self):
        assert parse_rational("3/4", "x") == F(3, 4)
        assert parse_rational(2, "x") == 2
        assert parse_rational(F(1, 3), "x") == F(1, 3)

    def test_rejects(self):
        with pytest.raises(DocumentError):
            parse_rational("abc", "x")
        with pytest.raises(DocumentError):
            parse_rational(True, "x")
        with pytest.raises(DocumentError):
            parse_rational(None, "x")

    def test_decimal_literals_parse_exactly(self):
        # json floats go through Decimal, so 0.1 means exactly 1/10
        doc = loads_json('{"v": 0.1}')
        assert doc["v"] == F(1, 10)
        doc = loads_json('{"v": 2.5e-3}')
        assert doc["v"] == F(1, 400)


class TestInstanceDocs:
    def test_round_trip(self, skewed, balanced, rigid):
        for inst in (skewed, balanced, rigid):
            doc = instance_to_doc(inst)
            back = instance_from_doc(doc)
            assert back == inst

    def test_text_round_trip(self, rigid):
        text = dumps_doc(instance_to_doc(rigid))
        assert parse_instance(text) == rigid
        # what json.loads reads besides text, bytes and bytearray, parses too
        assert parse_instance(text.encode()) == parse_instance(bytearray(text.encode())) == rigid

    def test_version_checked(self, skewed):
        doc = instance_to_doc(skewed)
        doc["version"] = "99"
        with pytest.raises(DocumentError):
            instance_from_doc(doc)
        # a version too long to hold is named by what stands in for it
        with pytest.raises(DocumentError) as info:
            parse_instance('{"version": 1' + "0" * 4400 + "}")
        assert str(info.value) == ".version: unsupported document version <number with more than 4300 digits>"

    def test_duplicate_ids_rejected(self, skewed):
        doc = instance_to_doc(skewed)
        doc["features"].append(doc["features"][0])
        with pytest.raises(DocumentError):
            instance_from_doc(doc)

    def test_malformed_json(self):
        with pytest.raises(DocumentError):
            parse_instance("{not json")

    @pytest.mark.parametrize("data, message", [
        (b"\xff", "not UTF-8 text (invalid start byte at byte 0)"),
        (bytearray(b'{"a": "\xff"}'), "not UTF-8 text (invalid start byte at byte 7)"),
        (b"\xff\xfe\x00", "not UTF-16-LE text (truncated data at byte 2)"),
    ])
    def test_undecodable_bytes_name_the_byte(self, data, message):
        # bytes are read as UTF-8, -16 or -32, told apart by their first bytes
        for read in (loads_json, parse_instance):
            with pytest.raises(DocumentError) as info:
                read(data)
            assert str(info.value) == message

    def test_counts_default_to_zero(self):
        doc = {
            "version": "1",
            "kind": "instance",
            "features": [{"id": "a", "p": "1/2", "counts": {"1": "2"}}],
        }
        inst = instance_from_doc(doc)
        assert inst.features[0].n2 == 0


class TestAssignmentDocs:
    def test_round_trip(self, skewed, balanced):
        for inst in (skewed, balanced):
            asg = identity_assignment(inst)
            back = assignment_from_doc(assignment_to_doc(asg))
            assert back == asg

    def test_text_round_trip(self, balanced):
        asg = identity_assignment(balanced)
        assert parse_assignment(dumps_doc(assignment_to_doc(asg))) == asg

    def test_bad_rows_reported_with_path(self, balanced):
        doc = assignment_to_doc(identity_assignment(balanced))
        doc["bins"][0]["allocation"]["s1"] = "2/3"
        with pytest.raises(DocumentError) as err:
            assignment_from_doc(doc)
        assert "bins" in str(err.value)

    def test_missing_allocation_means_zero(self):
        doc = {
            "version": "1",
            "kind": "assignment",
            "bins": [
                {"score": "1/4", "allocation": {"a": "1"}},
                {"score": "3/4", "allocation": {"b": "1"}},
            ],
        }
        asg = assignment_from_doc(doc)
        assert asg.feature_ids == ("a", "b")
        assert asg.rows == ((1, 0), (0, 1))


def test_assignment_document_parses_in_linear_time():
    # 40,000 features in one bin; a membership test against a list of the
    # ids seen so far makes this quadratic, over 20 s on a 2-CPU machine
    doc = {"version": "1", "bins": [{"score": "1/2", "allocation": {f"f{i}": "1" for i in range(40_000)}}]}
    text = json.dumps(doc)
    t0 = time.process_time()
    asg = parse_assignment(text)
    assert time.process_time() - t0 < 5
    assert asg.feature_ids[:2] == ("f0", "f1") and len(asg.feature_ids) == 40_000


class TestReducedDocs:
    def test_round_trip(self, embedded_pair):
        doc = reduced_to_doc(embedded_pair)
        back = reduced_from_doc(doc)
        assert back.scaled_weights == embedded_pair.scaled_weights
        assert back.required_pos_avg == embedded_pair.required_pos_avg
        assert back.rates == embedded_pair.rates
        assert back == embedded_pair

    def test_text_round_trip(self, embedded_pair):
        text = dumps_doc(reduced_to_doc(embedded_pair))
        back = parse_reduced(text)
        assert back.input_weights == embedded_pair.input_weights

    def test_tampered_weights_detected(self, embedded_pair):
        doc = reduced_to_doc(embedded_pair)
        doc["scaled_weights"][0] = "1/7"
        with pytest.raises(DocumentError):
            reduced_from_doc(doc)

    @pytest.mark.parametrize("field,tamper", [
        ("kind", lambda doc: doc.update(kind="instance")),
        ("weights", lambda doc: doc["weights"].__setitem__(0, "1")),
        ("m", lambda doc: doc.update(m=5)),
        ("kept_indices", lambda doc: doc.update(kept_indices=[1])),
        ("dropped_indices", lambda doc: doc.update(dropped_indices=[2])),
        ("scaled_weights", lambda doc: doc["scaled_weights"].__setitem__(0, "1/7")),
        ("required_pos_avg", lambda doc: doc.update(required_pos_avg="1/2")),
        ("rates", lambda doc: doc.update(rates=["0.5"] * len(doc["rates"]))),
        ("rate_structure", lambda doc: doc["rate_structure"][0].update(sign=1)),
        ("group1_mass", lambda doc: doc["group1_mass"].__setitem__(0, "7")),
        ("group2_mass", lambda doc: doc["group2_mass"].__setitem__(0, "7")),
    ])
    def test_every_derived_field_is_checked(self, embedded_pair, field, tamper):
        doc = reduced_to_doc(embedded_pair)
        tamper(doc)
        with pytest.raises(DocumentError) as info:
            reduced_from_doc(doc)
        assert info.value.path == "." + field

    def test_derived_fields_compare_by_value(self, embedded_pair):
        doc = reduced_to_doc(embedded_pair)
        assert doc["scaled_weights"][0] == "1/48"
        doc["scaled_weights"][0] = "2/96"
        doc["group1_mass"][0] = 0
        assert reduced_from_doc(doc) == embedded_pair

    def test_dropped_weights_survive(self):
        ri = reduce_subset_sum(SubsetSumInstance((5, 1, 2), 3))
        back = reduced_from_doc(reduced_to_doc(ri))
        assert back.dropped_indices == (1,)
        assert back.kept_indices == (2, 3)

    def test_rate_structure_documents_radicals(self, embedded_pair):
        doc = reduced_to_doc(embedded_pair)
        assert len(doc["rate_structure"]) == len(doc["rates"])
        first = doc["rate_structure"][0]
        assert set(first) == {"center", "half_gap_squared", "sign"}


class TestCsv:
    def test_parses(self):
        text = "feature_id,group,outcome\na,1,1\na,2,0\nb,1,0\nb,2,1\n"
        table = records_from_csv(text)
        assert len(table.rows) == 4
        assert table.rows[0].feature_id == "a"
        assert table.rows[0].positive is True

    def test_header_required(self):
        with pytest.raises(DocumentError):
            records_from_csv("id,grp,y\na,1,1\n")

    def test_bad_group_reports_line(self):
        with pytest.raises(DocumentError) as err:
            records_from_csv("feature_id,group,outcome\na,3,1\n")
        assert "2" in str(err.value)  # line number of the bad row

    def test_bad_outcome(self):
        with pytest.raises(DocumentError):
            records_from_csv("feature_id,group,outcome\na,1,yes\n")

    def test_blank_lines_skipped(self):
        text = "feature_id,group,outcome\n\na,1,1\n\nb,2,0\n"
        assert len(records_from_csv(text).rows) == 2


class TestDeterminism:
    def test_dumps_is_stable(self, skewed, embedded_pair):
        for doc_fn, obj in (
            (instance_to_doc, skewed),
            (reduced_to_doc, embedded_pair),
        ):
            assert dumps_doc(doc_fn(obj)) == dumps_doc(doc_fn(obj))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1),
                st.integers(0, 4),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_arbitrary_instances_round_trip(self, rows):
        from riskaudit import Instance, feature

        feats = tuple(
            feature(f"f{i}", p, a, b) for i, (p, a, b) in enumerate(rows)
        )
        inst = Instance(feats)
        assert instance_from_doc(instance_to_doc(inst)) == inst
