"""Reduction construction, equation checks, and the search over pairings.

The small worked example (weights (1, 2), target 3) is fixed as a session
fixture; its expected numbers were derived by hand and are treated as frozen.
"""
from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from riskaudit import (
    DomainError,
    Partition,
    ReductionInfeasibleError,
    SubsetSumInstance,
    check_reduction_equation,
    decode_partition,
    encode_solution,
    enumerate_partitions,
    is_normal_form,
    reduce_subset_sum,
    search_groupings,
    search_normal_forms,
    solve_subset_sum,
)
import reduction_oracle as old
import riskaudit.reduction as reduction_module
from riskaudit.reduction import ReducedInstance, Surd, _base_rates_are_half, _radical_basis


def _sympy_rate(sp, r):
    # built from the surd's fields, which sympy reads exactly
    return sp.Rational(r.center) + r.sign * sp.sqrt(sp.Rational(r.half_gap_squared))


def _sympy_equation(sp, ri, part):
    """The reduction equation decided by sympy's expansion."""
    rates = [_sympy_rate(sp, r) for r in ri.rates_exact]
    lhs = sp.Integer(0)
    for block in part.blocks:
        inner = sum(((rates[a - 1] - rates[b - 1]) ** 2 for a, b in combinations(block, 2)), sp.Integer(0))
        lhs += sp.Rational(1, len(block)) * inner
    residual = sp.expand(lhs - sp.Rational(1, ri.m**4))
    return all(c == 0 for c in residual.as_coefficients_dict().values())


# m = 2 and m = 3, solvable and not, with one and two solving subsets
ORACLE_INSTANCES = [((1, 2), 3), ((2, 3), 4), ((3, 2, 5), 10), ((2, 3, 5), 6), ((1, 1, 2), 2)]


class TestSubsetSumOracle:
    def test_solvable(self):
        assert solve_subset_sum(SubsetSumInstance((1, 2), 3)) == frozenset({1, 2})
        assert solve_subset_sum(SubsetSumInstance((3, 5, 7), 12)) == frozenset({2, 3})

    def test_unsolvable(self):
        assert solve_subset_sum(SubsetSumInstance((2, 3), 4)) is None
        assert solve_subset_sum(SubsetSumInstance((2,), 1)) is None

    def test_validation(self):
        with pytest.raises(DomainError):
            SubsetSumInstance((), 1)
        with pytest.raises(DomainError):
            SubsetSumInstance((0, 1), 1)
        with pytest.raises(DomainError):
            SubsetSumInstance((1, 2), 0)
        with pytest.raises(DomainError):
            SubsetSumInstance((1, 2), True)

    def test_smallest_witness_preferred(self):
        # both {1,2} and {3} hit 3; the low-mask witness comes first
        got = solve_subset_sum(SubsetSumInstance((1, 2, 3), 3))
        assert got == frozenset({1, 2})


@st.composite
def _subset_sums(draw):
    target = draw(st.integers(1, 10**12) | st.just(10**40))
    weight = st.integers(1, target) | st.sampled_from([1, target])
    return tuple(draw(st.lists(weight, min_size=1, max_size=12))), target


class TestConstruction:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_subset_sums())
    @example(((7,) * 12, 7))  # every weight at its largest
    @example(((1,) * 12, 10**40))  # every weight vanishingly small
    @example(((3, 3), 3))
    def test_required_average_keeps_the_anchors_in_range(self, instance):
        # every weight is kept, so m = len(weights). The construction refuses
        # m = 1 and no larger m; from m = 2 on, g < 2/3 + 1/16, so the anchors
        # (1 -+ sqrt(2g - 1)) / 2 lie in [0, 1] with no check of their own
        weights, target = instance
        try:
            ri = _reduced(weights, target)
        except ReductionInfeasibleError:
            assert len(weights) == 1
            return
        assert ri.m == len(weights)
        assert 0 <= 2 * ri.required_pos_avg - 1 < 1

    def test_frozen_small_example(self, embedded_pair):
        ri = embedded_pair
        assert ri.m == 2
        assert ri.scaled_weights == (F(1, 48), F(1, 24))
        assert ri.required_pos_avg == F(5, 9)
        assert ri.group1_mass == (0, 0, 0, 0, F(1, 2), F(1, 2))
        assert ri.group2_mass == (F(1, 4), F(1, 4), F(1, 4), F(1, 4), 0, 0)
        # anchors: (1 -/+ sqrt(2 * 5/9 - 1)) / 2 = 1/3 and 2/3
        assert ri.rates_exact[4] == F(1, 3)
        assert ri.rates_exact[5] == F(2, 3)

    def test_pair_rates_bracket_centers(self, embedded_pair):
        sp = pytest.importorskip("sympy")

        ri = embedded_pair
        for i in range(ri.m):
            lo, hi = ri.rates_exact[2 * i], ri.rates_exact[2 * i + 1]
            center = F(i + 1, ri.m + 1)
            assert (lo.sign, hi.sign) == (-1, 1)
            assert sp.simplify(_sympy_rate(sp, lo) + _sympy_rate(sp, hi) - 2 * sp.Rational(center)) == 0
            gap_sq = sp.expand((_sympy_rate(sp, hi) - _sympy_rate(sp, lo)) ** 2)
            assert gap_sq.is_Rational and gap_sq == 2 * sp.Rational(ri.scaled_weights[i])

    def test_embedded_instance_base_rates(self):
        # decided exactly on the surds, as `verify-reduction` reports it, and
        # in agreement with sympy's expansion of each group's base rate
        sp = pytest.importorskip("sympy")
        for weights, target in SYMPY_CHECKED:
            ri = _reduced(weights, target)
            assert _base_rates_are_half(ri)
            rates = [_sympy_rate(sp, r) for r in ri.rates_exact]
            for masses in (ri.group1_mass, ri.group2_mass):
                assert sp.expand(sum(sp.Rational(a) * r for a, r in zip(masses, rates)) - sp.Rational(1, 2)) == 0

    def test_base_rates_off_one_half_are_seen(self, embedded_pair):
        # group 2 on the first pair only: its centers average 1/3; and one
        # anchor's root flipped: the roots no longer cancel
        fields = {name: getattr(embedded_pair, name) for name in ReducedInstance.__slots__}
        first_pair = (F(1, 2), F(1, 2), 0, 0, 0, 0)
        anchors = fields["rates_exact"][:4] + (fields["rates_exact"][5],) * 2
        for change in ({"group2_mass": first_pair}, {"rates_exact": anchors}):
            assert not _base_rates_are_half(ReducedInstance(**{**fields, **change}))

    def test_symbolic_base_rates_exact(self, embedded_pair):
        sp = pytest.importorskip("sympy")

        ri = embedded_pair
        rates = [_sympy_rate(sp, r) for r in ri.rates_exact]
        g1 = sum(sp.Rational(a) * r for a, r in zip(ri.group1_mass, rates))
        g2 = sum(sp.Rational(a) * r for a, r in zip(ri.group2_mass, rates))
        assert sp.expand(g1 - sp.Rational(1, 2)) == 0
        assert sp.expand(g2 - sp.Rational(1, 2)) == 0

    def test_single_weight_infeasible(self):
        with pytest.raises(ReductionInfeasibleError):
            reduce_subset_sum(SubsetSumInstance((1,), 1))

    def test_overweight_items_dropped(self):
        ri = reduce_subset_sum(SubsetSumInstance((5, 1, 2), 3))
        assert ri.kept_indices == (2, 3)
        assert ri.dropped_indices == (1,)
        assert ri.m == 2

    def test_all_dropped_rejected(self):
        with pytest.raises(DomainError):
            reduce_subset_sum(SubsetSumInstance((9,), 3))

    def test_larger_m_feasible(self):
        ri = reduce_subset_sum(SubsetSumInstance((1, 2, 3, 4), 10))
        assert ri.m == 4
        # c + s * sqrt(q) lies strictly inside (0, 1), decided exactly: the
        # root is below both c and 1 - c
        for r in ri.rates_exact:
            c, q = r.center, r.half_gap_squared
            assert 0 < c < 1 and c * c > q and (1 - c) * (1 - c) > q


class TestEquation:
    def test_true_pairing(self, embedded_pair):
        part = encode_solution(embedded_pair, [1, 2])
        assert check_reduction_equation(embedded_pair, part)

    def test_all_singletons_false(self, embedded_pair):
        singles = Partition.from_blocks([[i] for i in range(1, 5)])
        assert not check_reduction_equation(embedded_pair, singles)

    def test_partial_pairing_false(self, embedded_pair):
        part = encode_solution(embedded_pair, [1])
        assert not check_reduction_equation(embedded_pair, part)

    def test_non_normal_partition_checked_symbolically(self, embedded_pair):
        # mixing the two pairs is not normal form; the equation fails there
        crossed = Partition.from_blocks([[1, 3], [2, 4]])
        assert not is_normal_form(embedded_pair, crossed)
        assert not check_reduction_equation(embedded_pair, crossed)

    def test_items_must_cover_pair_features(self, embedded_pair):
        with pytest.raises(DomainError):
            check_reduction_equation(
                embedded_pair, Partition.from_blocks([[1, 2]])
            )

    @pytest.mark.parametrize("blocks", [((1, 2), (3, 4), (3,)), ((1, 2), (3, 4), ())], ids=["repeat", "empty"])
    def test_a_grouping_repeats_no_index_and_has_no_empty_block(self, embedded_pair, blocks):
        # both hold every index, so a member-set test alone lets them pass
        # as the grouping ((1, 2), (3, 4)), which solves the instance
        for check in (check_reduction_equation, is_normal_form, decode_partition):
            with pytest.raises(DomainError, match="nonempty blocks"):
                check(embedded_pair, Partition(blocks))


class TestSurdOracles:
    @pytest.mark.parametrize("weights,target", ORACLE_INSTANCES)
    def test_equation_agrees_with_sympy_on_every_grouping(self, weights, target):
        sp = pytest.importorskip("sympy")

        ri = reduce_subset_sum(SubsetSumInstance(weights, target))
        holding = []
        for part in enumerate_partitions(2 * ri.m):
            part = Partition.from_blocks([[i + 1 for i in block] for block in part.blocks])
            got = check_reduction_equation(ri, part)
            assert got == _sympy_equation(sp, ri, part), part
            if got:
                holding.append(decode_partition(ri, part))
        hits = {
            frozenset(i + 1 for i in range(len(weights)) if mask >> i & 1)
            for mask in range(1 << len(weights))
            if sum(w for i, w in enumerate(weights) if mask >> i & 1) == target
        }
        assert sorted(holding, key=sorted) == sorted(hits, key=sorted)

    def test_surd_equality(self):
        assert Surd(F(1, 2), F(1, 36), -1) == F(1, 3)
        assert F(2, 3) == Surd(F(1, 2), F(1, 36), 1)
        assert Surd(F(1, 2), F(0), 1) == Surd(F(1, 2), F(0), -1) == F(1, 2)
        assert Surd(F(1, 3), F(1, 2), 1) != Surd(F(1, 3), F(1, 2), -1)
        assert Surd(F(1, 3), F(1, 2), 1) != F(1, 3)
        assert len({Surd(F(1, 2), F(1, 4), 1), F(1)}) == 1
        # anything else is left to the other operand, and so is unequal
        assert Surd(F(1, 2), F(1, 4), 1).__eq__("1") is NotImplemented
        assert Surd(F(1, 2), F(1, 4), 1) != "1" and Surd(F(1, 2), F(0), 1) != 0.5


def _groupings(m):
    for part in enumerate_partitions(2 * m):
        yield Partition.from_blocks([[i + 1 for i in block] for block in part.blocks])


def _reduced(weights, target):
    return reduce_subset_sum(SubsetSumInstance(weights, target))


# the instances of every grouping compared with sympy when sympy was dropped
SYMPY_CHECKED = [
    ((1, 2), 3), ((2, 3), 4), ((3, 2, 5), 10), ((1, 2, 3), 3), ((2, 3, 5), 6),
    ((1, 1, 2), 2), ((1, 2, 3, 4), 10), ((2, 3, 5, 7), 9), ((1, 2, 3, 4), 7),
]


class TestRadicalBasis:
    """The per-instance integer basis decides every grouping as the
    `Fraction` checker it replaced does."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=2, max_size=4), st.integers(1, 12))
    @example([1, 1, 2], 2)  # repeated weights share a radical
    @example([5, 1, 2], 3)  # a dropped weight
    @example([1, 4], 8)  # both half-gaps squared are rational squares
    @example([1, 2, 7], 2)  # one rational root beside an irrational one, one dropped
    def test_matches_the_fraction_checker(self, weights, target):
        try:
            ri = _reduced(tuple(weights), target)
        except (DomainError, ReductionInfeasibleError):
            assume(False)
        assume(ri.m <= 3)
        for part in _groupings(ri.m):
            assert check_reduction_equation(ri, part) == old.check_reduction_equation(ri, part), part

    @pytest.mark.parametrize("weights,target", SYMPY_CHECKED)
    def test_matches_the_fraction_checker_on_the_sympy_instances(self, weights, target):
        ri = _reduced(weights, target)
        for part in _groupings(ri.m):
            assert check_reduction_equation(ri, part) == old.check_reduction_equation(ri, part), part

    @pytest.mark.parametrize("weights,target", [((1, 1, 2), 2), ((1, 4, 9), 10)])
    def test_rational_sides_cancel_every_radical(self, weights, target):
        # repeated weights, and weights whose roots are rational multiples of
        # one another, make groupings outside normal form whose side of the
        # equation is rational; a basis built with that value as its target
        # accepts them only if every radical class cancels exactly
        sp = pytest.importorskip("sympy")
        ri = _reduced(weights, target)
        rates = [_sympy_rate(sp, r) for r in ri.rates_exact]
        crossed = 0
        for part in _groupings(ri.m):
            side = sp.expand(sum(
                (sp.Rational(1, len(block)) * (rates[a - 1] - rates[b - 1]) ** 2
                 for block in part.blocks for a, b in combinations(block, 2)),
                sp.Integer(0),
            ))
            if side.is_Rational:
                crossed += not is_normal_form(ri, part)
                basis = _radical_basis(ri.rates_exact[:2 * ri.m], F(side.p, side.q))
                assert basis.holds(part.blocks), part
        assert crossed > 40

    @pytest.mark.parametrize(
        "weights,target,classes",
        [
            # half-gaps squared w / 1134: roots of 7, 42, 70; products 6, 10, 15
            ((2, 3, 5), 7, 7),
            # w / 486: the equal weights share the root of 6, weight 2 gives 3
            ((1, 1, 2), 3, 4),
            ((1, 4, 9), 10, 2),  # w / 1620: every root a rational multiple of sqrt(5)
            ((1, 4), 8, 1),  # w / 256: every root rational
            ((1, 2, 7), 2, 2),  # w / 64: 1/8 and the root of 2; 7 is dropped
        ],
    )
    def test_one_class_per_radical(self, weights, target, classes):
        assert len(_reduced(weights, target)._basis.offset) == classes

    def test_groupings_need_no_roots_or_fractions(self, monkeypatch):
        ri = _reduced((3, 2, 5), 10)
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("_sqrt_upper", "isqrt", "Fraction"):
            monkeypatch.setattr(reduction_module, name, counted(name, getattr(reduction_module, name)))
        parts = list(_groupings(ri.m))
        assert len(parts) == 203
        holding = [part for part in parts if check_reduction_equation(ri, part)]
        assert calls == []
        assert [decode_partition(ri, part) for part in holding] == [frozenset({1, 2, 3})]

    def test_more_weights_than_the_search_limit_are_refused(self):
        ri = _reduced(tuple(range(1, 14)), 1000)
        assert ri.m == 13
        singles = Partition.from_blocks([[j] for j in range(1, 27)])
        for call in (lambda: check_reduction_equation(ri, singles), lambda: search_normal_forms(ri),
                     lambda: solve_subset_sum(SubsetSumInstance(tuple(range(1, 14)), 1000))):
            with pytest.raises(DomainError, match="13 weights"):
                call()
        # twelve is still searched
        assert search_normal_forms(_reduced(tuple(range(1, 13)), 1000)) is None


class TestEncodingRoundTrip:
    def test_encode_decode(self, embedded_pair):
        part = encode_solution(embedded_pair, [2])
        assert is_normal_form(embedded_pair, part)
        assert decode_partition(embedded_pair, part) == frozenset({2})

    def test_encode_rejects_unknown(self, embedded_pair):
        with pytest.raises(DomainError):
            encode_solution(embedded_pair, [7])

    def test_encode_rejects_dropped(self):
        ri = reduce_subset_sum(SubsetSumInstance((5, 1, 2), 3))
        with pytest.raises(DomainError):
            encode_solution(ri, [1])
        # kept positions still encode by their original index
        part = encode_solution(ri, [2, 3])
        assert decode_partition(ri, part) == frozenset({2, 3})

    def test_decode_requires_normal_form(self, embedded_pair):
        crossed = Partition.from_blocks([[1, 3], [2, 4]])
        with pytest.raises(DomainError):
            decode_partition(embedded_pair, crossed)
        for call in (decode_partition, is_normal_form, check_reduction_equation):
            with pytest.raises(DomainError, match="^part must be a Partition, not None"):
                call(embedded_pair, None)


class TestSearch:
    def test_solvable_agrees_with_oracle(self, embedded_pair):
        witness = search_normal_forms(embedded_pair)
        assert witness is not None
        decoded = frozenset(decode_partition(embedded_pair, witness))
        assert decoded == solve_subset_sum(SubsetSumInstance((1, 2), 3))

    def test_unsolvable_finds_nothing(self):
        ri = reduce_subset_sum(SubsetSumInstance((2, 3), 4))
        assert search_normal_forms(ri) is None
        assert solve_subset_sum(SubsetSumInstance((2, 3), 4)) is None


def _refusal(call) -> str:
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


class TestAgainstTheReferences:
    """`search_normal_forms` decides each subset choice on the radical basis
    and `encode_solution` writes the canonical blocks directly; both give
    what the versions kept in `reduction_oracle` give."""

    def test_search_on_seeded_reductions(self):
        # m = 2..8 kept weights (m = 1 never builds), solvable and not, some
        # beside a dropped weight so that kept and original positions differ
        rng = Random(2016)
        seen = []
        for m in range(2, 9):
            for solvable in (True, False):
                weights = [2 * rng.randint(1, 20) for _ in range(m)]
                rest = sorted(weights)[:-1]
                # even weights miss an odd target; any subset with the
                # largest weight hits its sum
                target = max(weights) + (sum(rng.sample(rest, rng.randint(0, m - 1))) if solvable else 1)
                if rng.random() < 0.5:
                    weights.insert(rng.randint(0, m), target + 1)
                ri = _reduced(tuple(weights), target)
                assert ri.m == m
                found = search_normal_forms(ri)
                assert found == old.search_normal_forms(ri), (weights, target)
                seen.append((found is None) != solvable)
        assert all(seen)

    def test_search_builds_only_the_hit(self, monkeypatch):
        built = []
        encode = reduction_module.encode_solution

        def counted(ri, chosen):
            built.append(chosen)
            return encode(ri, chosen)

        monkeypatch.setattr(reduction_module, "encode_solution", counted)
        solvable = _reduced((3, 5, 7, 9), 16)
        assert search_normal_forms(solvable) == old.search_normal_forms(solvable)
        assert search_normal_forms(_reduced((2, 4, 6), 5)) is None
        assert built == [[3, 4]]

    @pytest.mark.parametrize("m", range(2, 7))
    def test_encode_on_every_choice(self, m):
        # position 1 is dropped, so kept positions run 2..m + 1
        ri = _reduced((100,) + tuple(range(1, m + 1)), 99)
        kept = ri.kept_indices
        for mask in range(1 << m):
            chosen = [kept[i] for i in range(m) if mask >> i & 1]
            assert encode_solution(ri, chosen) == old.encode_solution(ri, chosen), chosen
            for bad in ([1], [m + 2], [m + 2, 1]):
                choice = chosen + bad
                assert _refusal(lambda: encode_solution(ri, choice)) == _refusal(lambda: old.encode_solution(ri, choice))


def _seeded_reductions(count, seed=2016):
    # m = 2 and m = 3 with every weight kept, solvable or not
    rng = Random(seed)
    while count:
        weights = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 3)))
        target = rng.randint(max(weights), sum(weights) + 2)
        try:
            ri = _reduced(weights, target)
        except ReductionInfeasibleError:
            continue
        count -= 1
        yield ri


class TestGroupingSearch:
    """`search_groupings` checks every grouping of the pair features, so it
    decides the exact reduced instance, normal form or not."""

    @pytest.mark.parametrize("target, subset", [(6, None), (5, frozenset({1, 2})), (10, frozenset({1, 2, 3}))],
                             ids=["6", "5", "10"])
    def test_nontriviality_cases(self, target, subset):
        # (2, 3, 5) -> 6 has no subset; a search over the float image found
        # fair splits there whose scores were only 2**-55 apart
        ri = reduce_subset_sum(SubsetSumInstance((2, 3, 5), target))
        found = search_groupings(ri)
        assert (None if found is None else decode_partition(ri, found)) == subset

    def test_matches_both_oracles(self):
        outside = 0
        for ri in [*_seeded_reductions(60), _reduced((1, 2, 3, 4), 5)]:
            found = search_groupings(ri)
            oracle = solve_subset_sum(SubsetSumInstance(ri.weights, ri.target))
            assert (found is None) == (oracle is None) == (search_normal_forms(ri) is None), ri.input_weights
            if found is not None:
                assert is_normal_form(ri, found)
                assert sum(ri.input_weights[i - 1] for i in decode_partition(ri, found)) == ri.target
            outside += sum(check_reduction_equation(ri, part) for part in _groupings(ri.m)
                           if not is_normal_form(ri, part))
        assert outside == 0

    def test_seven_weights_are_refused_before_any_grouping(self, monkeypatch):
        ri = _reduced(tuple(range(1, 8)), 100)
        checked = []
        monkeypatch.setattr(reduction_module, "check_reduction_equation", lambda *args: checked.append(args))
        with pytest.raises(DomainError, match="^7 weights: at most 6"):
            search_groupings(ri)
        assert checked == []
