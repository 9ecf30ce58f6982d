import hashlib
import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskaudit import (
    DomainError,
    Instance,
    approx_audit_corpus,
    audit_approx,
    audit_exact,
    banded_split_assignment,
    calibrated_split_assignment,
    derived_stats,
    dumps_doc,
    feature,
    identity_assignment,
    instance_to_doc,
    pooled_rounded_assignment,
    random_equal_rate_instance,
    random_gapped_instance,
    random_instance,
    random_perfect_instance,
    random_proportional_instance,
    theorem_sweep,
    two_bin_certain_assignment,
    validate_instance,
)
import audit_oracle as old
import riskaudit.audit as audit_module
import riskaudit.sweep as sweep_module
from riskaudit.audit import (
    _accumulate_bins,
    _approx_report,
    _calibrated_within,
    _fair,
    _first_bin_within,
    _pooled,
    _scored,
    consequence_slack,
)
from riskaudit.cli import run_cli
from riskaudit.model import _assignment, _scaled
from riskaudit.sweep import (
    _banded_bins,
    _below,
    _pooled_struct,
    _split_draw,
    _Splits,
    is_perfect_prediction,
)

SEEDS = st.integers(0, 10**9)


class TestGenerators:
    @settings(max_examples=50, deadline=None)
    @given(SEEDS)
    def test_random_instances_valid(self, seed):
        inst = random_instance(random.Random(seed))
        assert validate_instance(inst).ok
        assert 1 <= len(inst.features) <= 6

    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_proportional_groups_share_all_averages(self, seed):
        rng = random.Random(seed)
        inst = random_proportional_instance(rng)
        gs = derived_stats(inst)
        assert gs.base_rate[0] == gs.base_rate[1]
        # any assignment at all balances both classes on such instances
        asg = pooled_rounded_assignment(inst, rng)
        rep = audit_exact(inst, asg)
        assert rep.balance_pos_ok and rep.balance_neg_ok

    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_equal_rate_instances(self, seed):
        inst = random_equal_rate_instance(random.Random(seed))
        gs = derived_stats(inst)
        assert gs.base_rate[0] == gs.base_rate[1]
        assert validate_instance(inst).ok

    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_gapped_instances(self, seed):
        inst = random_gapped_instance(random.Random(seed))
        gs = derived_stats(inst)
        assert abs(gs.base_rate[0] - gs.base_rate[1]) >= F(1, 10)
        assert any(
            0 < f.p < 1 and (f.n1 or f.n2) for f in inst.features
        )

    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_perfect_instances(self, seed):
        inst = random_perfect_instance(random.Random(seed))
        assert is_perfect_prediction(inst)
        assert validate_instance(inst).ok

    def test_unreachable_gap_refused(self, monkeypatch):
        # an uncertain populated feature keeps its group's base rate inside
        # (0, 1), so no instance has a gap of 1; the draws are counted so that
        # a rejection loop fails the test instead of running forever
        drawn = []
        original = sweep_module.random_instance

        def counted(rng, max_features=6):
            drawn.append(max_features)
            assert len(drawn) < 1000, "random_gapped_instance kept drawing"
            return original(rng, max_features)

        monkeypatch.setattr(sweep_module, "random_instance", counted)
        for min_gap in (F(1), 1, F(3, 2), F(996, 1000)):  # 203/204 is the widest gap of 6 features
            with pytest.raises(DomainError, match="min_gap must be below 1"):
                random_gapped_instance(random.Random(0), min_gap)
        with pytest.raises(DomainError, match="at most 11/12 for 2 features"):
            random_gapped_instance(random.Random(0), F(11, 12) + F(1, 10**9), max_features=2)
        assert drawn == []
        inst = random_gapped_instance(random.Random(0), F(1, 2))
        assert abs(derived_stats(inst).base_rate[0] - derived_stats(inst).base_rate[1]) >= F(1, 2)

    def test_widest_gap_is_drawn(self):
        # 1 - 1/(12 (4 (k - 2) + 1)) is the widest gap k features reach, so
        # refusing a wider one refuses nothing reachable: 11/12 at k = 2 is
        # drawn from seed 0 after about 2,000 instances
        gs = derived_stats(random_gapped_instance(random.Random(0), F(11, 12), max_features=2))
        assert abs(gs.base_rate[0] - gs.base_rate[1]) == F(11, 12)

    @pytest.mark.parametrize("family", [
        random_instance, random_gapped_instance, random_perfect_instance, random_proportional_instance,
    ])
    def test_fewer_than_two_features_refused(self, family):
        for max_features in (1, 0, -3):
            with pytest.raises(DomainError, match="max_features must be at least 2"):
                family(random.Random(0), max_features=max_features)
        for max_features in (2.5, "4", True, None):
            with pytest.raises(DomainError, match="^max_features must be an int"):
                family(random.Random(0), max_features=max_features)
        assert len(family(random.Random(0), max_features=2).features) == 2

    def test_equal_rates_need_three_features(self):
        # up to max_features - 2 drawn features and two balancing ones
        for max_features in (2, 1, 0):
            with pytest.raises(DomainError, match="max_features must be at least 3"):
                random_equal_rate_instance(random.Random(0), max_features)
        with pytest.raises(DomainError, match="^max_features must be an int"):
            random_equal_rate_instance(random.Random(0), 2.5)
        for seed in range(300):
            assert len(random_equal_rate_instance(random.Random(seed), 3).features) <= 3


class TestCandidateFamilies:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_pooled_rounded_is_population_calibrated(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng)
        asg = pooled_rounded_assignment(inst, rng)
        stats_rows = audit_exact(inst, asg)
        # population calibration: total expected positives match overall
        gs = derived_stats(inst)
        total_expected = (
            stats_rows.expected_score_total[0] + stats_rows.expected_score_total[1]
        )
        assert total_expected == gs.positive_mass[0] + gs.positive_mass[1]

    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_calibrated_split_passes_calibration(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng)
        asg = calibrated_split_assignment(inst, rng)
        assert audit_exact(inst, asg).calibration_ok

    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_banded_split_passes_relaxed_calibration(self, seed):
        rng = random.Random(seed)
        eps = F(1, 100)
        inst = random_instance(rng)
        asg = banded_split_assignment(inst, rng, eps)
        assert audit_approx(inst, asg, eps).calibration_ok

    @settings(max_examples=20, deadline=None)
    @given(SEEDS)
    def test_two_bin_certain(self, seed):
        rng = random.Random(seed)
        inst = random_perfect_instance(rng)
        asg = two_bin_certain_assignment(inst)
        rep = audit_exact(inst, asg)
        assert rep.calibration_ok
        assert set(asg.scores) <= {F(0), F(1)}

    def test_two_bin_certain_refuses_an_uncertain_instance(self, skewed):
        with pytest.raises(DomainError, match="uncertain populated feature"):
            two_bin_certain_assignment(skewed)


class TestTheoremSweep:
    def test_no_counterexamples_on_skewed(self, skewed):
        rep = theorem_sweep(skewed, 60, F(1, 100), 11)
        assert rep.exact_counterexample is None
        assert rep.approx_counterexample is None
        assert rep.integral_complete
        assert rep.fractional_explored == 60

    def test_exact_fair_recorded_on_balanced(self, balanced):
        rep = theorem_sweep(balanced, 0, F(0), 5)
        # integral side alone finds the fair identity split
        assert rep.exact_fair_count >= 1
        assert rep.first_exact_fair is not None
        assert rep.base_rate_gap == 0

    def test_deterministic_per_seed(self, skewed):
        a = theorem_sweep(skewed, 40, F(1, 100), 3)
        b = theorem_sweep(skewed, 40, F(1, 100), 3)
        assert a == b

    def test_seed_changes_stream(self, skewed):
        a = theorem_sweep(skewed, 40, F(1, 100), 3)
        b = theorem_sweep(skewed, 40, F(1, 100), 4)
        assert a.seed != b.seed

    def test_each_candidate_aggregated_once(self, monkeypatch):
        # a pooled candidate's bin table is built to score it, then reused
        # for its verdicts
        inst = random_proportional_instance(random.Random(2))
        tabled = []
        original = audit_module._accumulate_bins

        def recorded(scaled, rows, nbins):
            tabled.append(rows)
            return original(scaled, rows, nbins)

        monkeypatch.setattr(audit_module, "_accumulate_bins", recorded)
        monkeypatch.setattr(sweep_module, "_accumulate_bins", recorded)
        rep = theorem_sweep(inst, 300, F(0), 2)
        assert rep.integral_complete and rep.fractional_explored == 300
        assert len(tabled) <= rep.integral_explored + rep.fractional_explored
        assert all(a is not b for a, b in zip(tabled, tabled[1:]))

    @pytest.mark.parametrize("family", [random_gapped_instance, random_equal_rate_instance])
    def test_split_candidates_share_one_table(self, monkeypatch, family):
        # at eps = 0 every fractional candidate is pooled or split, and every
        # split candidate takes the verdicts of the first one's table
        scored = []
        original = sweep_module._scored

        def counted(scaled, rows, scores):
            scored.append(rows)
            return original(scaled, rows, scores)

        monkeypatch.setattr(sweep_module, "_scored", counted)
        for seed in range(4):
            scored.clear()
            rep = theorem_sweep(family(random.Random(seed)), 300, F(0), seed)
            assert rep.fractional_explored == 300
            assert len(scored) <= 1

    def test_pooled_candidates_screened_on_their_first_bin(self, monkeypatch):
        # on gapped instances most pooled candidates fail calibration in
        # their first bin and never get a full table
        draws, tables = [], []
        original_draw, original_table = sweep_module._pooled_struct, sweep_module._accumulate_bins

        def drawn(k, rng):
            draws.append(k)
            return original_draw(k, rng)

        def tabled(scaled, rows, nbins):
            tables.append(rows)
            return original_table(scaled, rows, nbins)

        monkeypatch.setattr(sweep_module, "_pooled_struct", drawn)
        monkeypatch.setattr(sweep_module, "_accumulate_bins", tabled)
        for seed in range(4):
            draws.clear()
            tables.clear()
            rep = theorem_sweep(random_gapped_instance(random.Random(seed)), 300, F(0), seed, integral_cap=0)
            assert rep.fractional_explored == 300 and draws
            assert 3 * len(tables) < len(draws)

    def test_rejects_negative_budget(self, skewed):
        with pytest.raises(DomainError):
            theorem_sweep(skewed, -1, F(0), 1)
        with pytest.raises(DomainError):
            theorem_sweep(skewed, 5, F(-1), 1)
        with pytest.raises(DomainError):
            theorem_sweep(skewed, 5, F(0), 1, integral_cap=-3)
        # a budget or cap that is not an int is refused as a negative one is
        for bad in (2.5, "3", True, False, F(3), None):
            with pytest.raises(DomainError, match="search budget must be an int"):
                theorem_sweep(skewed, bad, F(0), 1)
            if bad is not None:
                with pytest.raises(DomainError, match="integral cap must be an int"):
                    theorem_sweep(skewed, 5, F(0), 1, integral_cap=bad)
        assert theorem_sweep(skewed, 0, F(0), 1, integral_cap=0).integral_explored == 0

    def test_seed_must_be_an_int(self, skewed):
        # `Random(None)` reads the clock, and the report and its document
        # carry the seed as an int; a negative int names a stream like any other
        for bad in (None, "abc", 1.5, True, F(3)):
            with pytest.raises(DomainError, match="^seed must be an int"):
                theorem_sweep(skewed, 5, F(0), bad)
            with pytest.raises(DomainError, match="^seed must be an int"):
                next(approx_audit_corpus(F(1, 100), bad))
        with pytest.raises(DomainError) as refused:
            theorem_sweep(skewed, 5, F(0), "x" * 10**5)
        assert len(str(refused.value)) < 100  # the refused value is shown cut short
        assert theorem_sweep(skewed, 40, F(1, 100), -3) == theorem_sweep(skewed, 40, F(1, 100), -3)
        assert next(approx_audit_corpus(F(1, 100), -3))[2].passed


class TestCounterexamples:
    """The sweep keeps a counterexample when a gapped instance has a fair
    candidate, or one that passes the relaxed audit with neither
    consequence. The theorems rule both out, so the verdicts are forced
    here, on the integral side of a sweep with no fractional budget."""

    @pytest.fixture
    def built(self, monkeypatch):
        witnesses = []
        original = sweep_module._witness

        def counted(inst, blocks):
            witnesses.append(tuple(blocks))
            return original(inst, blocks)

        monkeypatch.setattr(sweep_module, "_witness", counted)
        return witnesses

    @staticmethod
    def _exits_one(skewed, tmp_path, capsys, *flags):
        path = tmp_path / "skewed.json"
        path.write_text(dumps_doc(instance_to_doc(skewed)))
        assert run_cli(["theorem-sweep", "-i", str(path), "--seed", "1", "--budget", "0", *flags]) == 1
        capsys.readouterr()

    def test_a_fair_candidate_is_the_exact_counterexample(self, skewed, built, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sweep_module, "_fair", lambda table: True)
        rep = theorem_sweep(skewed, 0, F(0), 1)
        assert rep.exact_fair_count >= 1
        assert rep.first_exact_fair is not None
        assert rep.exact_counterexample is rep.first_exact_fair
        assert len(built) == 1
        self._exits_one(skewed, tmp_path, capsys)

    def test_a_pass_without_a_consequence_is_the_approximate_counterexample(
            self, skewed, built, monkeypatch, tmp_path, capsys):
        eps = F(1, 100)
        candidates = []

        def passing(*args):
            candidates.append(args)
            report = _approx_report(*args)
            flags = report.consequence._replace(near_perfect_prediction=False, near_equal_base_rates=False)
            return report._replace(passed=True, consequence=flags)

        monkeypatch.setattr(sweep_module, "_approx_report", passing)
        rep = theorem_sweep(skewed, 0, eps, 1)
        assert rep.approx_pass_count >= 1
        assert rep.exact_fair_count == 0
        # the witness kept is the first candidate, and audits as it did
        assert audit_approx(skewed, rep.approx_counterexample, eps) == _approx_report(*candidates[0])
        assert len(built) == 1
        self._exits_one(skewed, tmp_path, capsys, "--eps", "1/100")


class TestCorpus:
    def test_yields_passing_triples(self):
        gen = approx_audit_corpus(F(1, 100), 99)
        for _ in range(25):
            inst, asg, report = next(gen)
            assert report.passed
            assert report.epsilon == F(1, 100)
            # verdict is reproducible from the parts
            again = audit_approx(inst, asg, F(1, 100))
            assert again.passed

    def test_streams_are_seed_deterministic(self):
        def take(n, seed):
            gen = approx_audit_corpus(F(1, 100), seed)
            return [next(gen) for _ in range(n)]

        a = take(3, 7)
        b = take(3, 7)
        assert [x[0] for x in a] == [x[0] for x in b]
        assert [x[1] for x in a] == [x[1] for x in b]


INSTANCE_FAMILIES = (
    random_instance,
    random_gapped_instance,
    random_proportional_instance,
    random_equal_rate_instance,
    random_perfect_instance,
)


class TestIntegerVerdicts:
    """The scored integer bin table decides every sweep verdict as the
    `Fraction` audit of the built candidate does."""

    @pytest.mark.parametrize("eps", [F(0), F(1, 1000)])
    def test_verdicts_match_the_fraction_oracle(self, eps):
        rng = random.Random(f"screen/{eps}")
        slack = consequence_slack(eps)
        seen = {"fair": set(), "approx": set()}
        for _ in range(150):
            inst = rng.choice(INSTANCE_FAMILIES)(rng)
            scaled = _scaled(inst)
            splits = _Splits(inst, eps)
            for family in ("pooled", "split", "banded") * 3:
                if family == "pooled":
                    rows = _pooled_struct(len(inst.features), rng)
                    table = _pooled(*_accumulate_bins(scaled, rows, len(rows[0])))
                    scores = list(map(F, table.nums, table.dens))
                else:
                    if family == "split":
                        rows, scores, _ = splits.bins(*_split_draw(len(inst.features), rng))
                    else:
                        rows, scores = _banded_bins(splits, rng)
                    table = _scored(scaled, rows, scores)
                asg = _assignment(inst, rows, scores)
                fair = _fair(table)
                passed = _approx_report(scaled, eps, slack, table).passed
                assert fair == old.passes_fairness(inst, asg)
                assert passed == old.audit_approx(inst, asg, eps).passed
                seen["fair"].add(fair)
                seen["approx"].add(passed)
        # the sample holds both verdicts of both kinds
        assert seen == {"fair": {False, True}, "approx": {False, True}}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(INSTANCE_FAMILIES), st.integers(0, 10**6))
def test_split_candidates_audit_as_the_identity(family, seed):
    # the identity the sweep's shared split verdicts rest on: a calibrated
    # split gives each class the identity assignment's average score
    rng = random.Random(seed)
    inst = family(rng)
    identity = identity_assignment(inst)
    exact = old.audit_exact(inst, identity)
    relaxed = {eps: old.audit_approx(inst, identity, eps) for eps in (F(1, 1000), F(1, 10))}
    for _ in range(3):
        asg = calibrated_split_assignment(inst, rng)
        report = old.audit_exact(inst, asg)
        assert report.fair == exact.fair
        assert report.pos_class_avg == exact.pos_class_avg
        assert report.neg_class_avg == exact.neg_class_avg
        for eps, approx in relaxed.items():
            assert old.audit_approx(inst, asg, eps) == approx


def test_first_bin_screen_is_exact():
    # the screen's integer verdict is the calibration band verdict of the
    # kernel's first column, pooled, and a candidate it rejects passes
    # neither the exact nor the relaxed audit
    outcomes = set()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(INSTANCE_FAMILIES), st.integers(0, 10**6),
           st.sampled_from((F(0), F(1, 1000), F(1, 10), F(1, 2), F(2))))
    def check(family, seed, eps):
        rng = random.Random(seed)
        inst = family(rng)
        k = len(inst.features)
        scaled = _scaled(inst)
        columns = tuple(zip(*scaled.weights))
        slack = consequence_slack(eps)
        # the drawn candidates, and one whose first bin holds nobody
        draws = [_pooled_struct(k, rng) for _ in range(5)] + [((0, 1),) * k]
        for rows in draws:
            passed = _first_bin_within(columns, rows, eps)
            assert passed == _calibrated_within(_pooled(*_accumulate_bins(scaled, rows, 1)), eps)
            if not passed:
                full = _pooled(*_accumulate_bins(scaled, rows, len(rows[0])))
                assert not _fair(full)
                assert not _approx_report(scaled, eps, slack, full).passed
            outcomes.add(passed)
        assert _first_bin_within(columns, draws[-1], eps)

    check()
    assert outcomes == {False, True}


# an instance with certain features of both kinds and shared probabilities,
# so that merged bins have owners other than their position and zero scores
# are left as they are
def _certain_and_shared(rng):
    return Instance((
        feature("a", F(0), 1, 2),
        feature("b", F(1, 3), 1, 1),
        feature("c", F(1), 2, 1),
        feature("d", F(1, 3), 2, 0),
        feature("e", F(0), 0, 1),
        feature("f", F(1), 1, 0),
    ))


def test_one_split_structure_serves_every_draw():
    # many split and banded candidates drawn from one _Splits, as a sweep
    # draws them, equal the randint reference's on the same seed; the sample
    # reads nudged scores back from the table as well as filling it
    reads = []

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(INSTANCE_FAMILIES + (_certain_and_shared,)), st.integers(0, 10**6),
           st.sampled_from((F(0), F(1, 1000), F(1, 10), F(1, 2), F(2))))
    def check(family, seed, eps):
        inst = family(random.Random(seed))
        k = len(inst.features)
        splits = _Splits(inst, eps)
        ours, theirs, pick = random.Random(seed), random.Random(seed), random.Random(~seed)
        lookups = 0
        for _ in range(40):
            if pick.random() < 0.5:
                rows, scores, owners = splits.bins(*_split_draw(k, ours))
                assert [inst.features[i].p for i in owners] == scores
                expected = old._split_assignment(inst, old._split_structure(inst, theirs))
            else:
                rows, scores = _banded_bins(splits, ours)
                lookups += sum(1 for v in scores if v)
                expected = old._split_assignment(inst, old._banded_bins(inst, theirs, eps))
            assert _assignment(inst, rows, scores) == expected
        assert ours.random() == theirs.random()
        filled = sum(1 for v in splits.nudged if v is not None)
        assert (filled > 0) == (lookups > 0)
        reads.append(lookups - filled)

    check()
    assert max(reads) > 0


def _seeded_outputs():
    for family in INSTANCE_FAMILIES:
        for seed in range(4):
            inst = family(random.Random(seed))
            for eps in (F(0), F(1, 1000), F(1, 10), F(1, 2)):
                for cap in (None, 0):
                    yield theorem_sweep(inst, 300, eps, seed, integral_cap=cap)
            rng = random.Random(seed)
            for _ in range(20):
                yield pooled_rounded_assignment(inst, rng)
                yield calibrated_split_assignment(inst, rng)
                for eps in (F(0), F(1, 10), F(2)):
                    yield banded_split_assignment(inst, rng, eps)
    for eps in (F(0), F(1, 1000), F(1, 10), F(1, 2)):
        yield from islice(approx_audit_corpus(eps, 3), 25)


def test_same_seed_same_report():
    # the reprs of a fixed set of seeded sweep reports, candidate draws and
    # corpus triples; a change to any seeded output changes this digest, and
    # is called out in CHANGES.md with its reason when the digest is updated
    digest = hashlib.sha256()
    for out in _seeded_outputs():
        digest.update(repr(out).encode())
    assert digest.hexdigest() == "b2e01df4e6567ab5ac3723cf095fdfe533aed4efd5c4f8d519df1a38fe314878"


class TestDraws:
    """The candidate draws read `getrandbits` directly but consume the stream
    as `randrange` and `randint` do, so seeded sweeps are unchanged."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 17, 100, 2**40 + 3])
    def test_below_follows_randrange(self, n):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [_below(ours.getrandbits, n) for _ in range(20)] == [
                theirs.randrange(n) for _ in range(20)
            ]
            assert ours.random() == theirs.random()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(INSTANCE_FAMILIES), st.integers(0, 10**6),
           st.sampled_from((F(0), F(1, 1000), F(1, 10), F(2))))
    def test_structures_match_the_randint_draws(self, family, seed, eps):
        inst = family(random.Random(seed))
        k = len(inst.features)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _pooled_struct(k, ours) == old._pooled_struct(k, theirs)
        # the split and banded draws, compared through the assignments they build
        rows, scores, _ = _Splits(inst).bins(*_split_draw(k, ours))
        assert _assignment(inst, rows, scores) == old._split_assignment(inst, old._split_structure(inst, theirs))
        banded = _banded_bins(_Splits(inst, eps), ours)
        assert _assignment(inst, *banded) == old._split_assignment(inst, old._banded_bins(inst, theirs, eps))
        assert ours.random() == theirs.random()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(INSTANCE_FAMILIES), st.integers(0, 10**6),
       st.sampled_from((F(0), F(1, 1000), F(1, 10), F(1, 2), F(2))), st.sampled_from((None, 0, 3, 52, 203)))
# the split candidates' shared verdict passes: it is exactly fair, or it
# passes the relaxed audit
@example(random_equal_rate_instance, 30, F(0), None)
@example(random_perfect_instance, 0, F(1, 10), None)
def test_sweep_matches_old_implementation(family, seed, eps, integral_cap):
    inst = family(random.Random(seed))
    assert theorem_sweep(inst, 200, eps, seed, integral_cap=integral_cap) == old.plain_sweep(
        inst, 200, eps, seed, integral_cap=integral_cap
    )
