"""Validators, selectors, aggregators and the well-behavedness audit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given


from tmln.randgen import random_audit_samples, random_instantiation, random_weight_tuples
from tmln.semantics import (
    Aggregator,
    ParametricSemantics,
    Selector,
    SemanticsError,
    Validator,
    aggregate,
    audit_well_behaved,
    delta,
    select,
    shipped_combinations,
    strength,
)
from tmln.oracle import brute_delta, brute_strength
from tmln.temporal import Relation, RelationKind

from strategies import instantiations, weight_tuples

F = Fraction


class TestDelta:
    def test_example_facts_are_not_totally_consistent(self, oresme):
        # F4 and F6 overlap on two years, so total consistency fails; F5's
        # interval sits inside F6's, so partial consistency fails as well.
        # No complementary pair is bound-identical, so strict clash passes.
        assert delta(Relation.TCON, oresme.facts) == 0
        assert delta(Relation.PCON, oresme.facts) == 0
        assert delta(Relation.TINC, oresme.facts) == 1

    def test_empty_state_accepted_by_all(self):
        for relation in Relation:
            assert delta(relation, ()) == 1

    def test_pointwise_ordering(self):
        rng = random.Random(2)
        for _ in range(300):
            items = random_instantiation(rng)
            values = {r: delta(r, items) for r in Relation}
            assert values[Relation.TCON] == values[Relation.PINC]
            assert values[Relation.TCON] <= values[Relation.PCON]
            assert values[Relation.PCON] <= values[Relation.TINC]

    @given(instantiations())
    def test_consistency_twins(self, items):
        assert delta(Relation.TCON, items) == delta(Relation.PINC, items)


class TestAggregate:
    def test_plain_sum_of_example_weights(self):
        ws = tuple(F(x) for x in ("1", "1", "1", "0.5", "0.4", "0.5", "0.8"))
        assert aggregate(Aggregator("sum"), ws) == F("5.2")

    def test_probabilistic_sum(self):
        assert aggregate(Aggregator("psum"), (F("0.5"), F("0.5"))) == F("0.75")

    @given(weight_tuples)
    def test_alpha_one_equals_plain_sum(self, ws):
        plain = aggregate(Aggregator("sum"), ws)
        powered = aggregate(Aggregator("sum_alpha", 1.0), ws)
        assert abs(float(plain) - float(powered)) <= 1e-9

    def test_empty_tuple_scores_zero(self):
        for agg in (Aggregator("sum"), Aggregator("sum_alpha", 2.0), Aggregator("psum")):
            assert aggregate(agg, ()) == 0

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(SemanticsError, match="outside"):
            aggregate(Aggregator("sum"), (F(2),))

    def test_alpha_below_one_rejected(self):
        with pytest.raises(SemanticsError, match="below 1"):
            Aggregator("sum_alpha", 0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(SemanticsError, match="not finite"):
            Aggregator("sum_alpha", alpha)

    @given(weight_tuples)
    def test_symmetry_and_monotonicity(self, ws):
        for agg in (Aggregator("sum"), Aggregator("sum_alpha", 2.0), Aggregator("psum")):
            if len(ws) >= 2:
                rotated = ws[1:] + ws[:1]
                assert abs(float(agg(ws)) - float(agg(rotated))) <= 1e-9
            low = ws + (F("0.2"),)
            high = ws + (F("0.9"),)
            assert float(agg(low)) <= float(agg(high)) + 1e-9

    @given(weight_tuples)
    def test_probabilistic_sum_stays_in_unit_interval(self, ws):
        value = aggregate(Aggregator("psum"), ws)
        assert 0 <= float(value) <= 1 + 1e-12


class TestSelect:
    def test_identity_projects_weights(self):
        rng = random.Random(3)
        items = random_instantiation(rng, max_size=4)
        assert select(Selector("id"), items) == tuple(wf.weight for wf in items)

    def test_threshold_zero_is_identity(self):
        rng = random.Random(4)
        for _ in range(50):
            items = random_instantiation(rng)
            assert select(Selector("thresh", F(0)), items) == select(Selector("id"), items)

    def test_rule_slot_zeroed_without_premises(self, names):
        # GR2 needs Philosopher and LivePeriod; with only F6 alongside, its
        # premises are not deducible from the rest, so its slot drops to 0.
        items = (names["F6"], names["GR2"])
        assert select(Selector("rule"), items) == (F("0.5"), F(0))

    def test_rule_slot_kept_with_premises(self, names):
        items = (names["F2"], names["F3"], names["GR2"])
        assert select(Selector("rule"), items) == (F(1), F(1), F("0.8"))

    def test_rule_selector_leaves_facts_alone(self, names):
        items = (names["F4"], names["F5"])
        assert select(Selector("rule"), items) == (F("0.4"), F("0.7"))

    @given(instantiations())
    def test_tuple_length_matches_state_size(self, items):
        for sel in (Selector("id"), Selector("thresh", F("0.25")), Selector("rule")):
            assert len(select(sel, items)) == len(items)

    @given(instantiations())
    def test_threshold_never_raises_weights(self, items):
        out = select(Selector("thresh", F("0.25")), items)
        assert all(s <= wf.weight for s, wf in zip(out, items))

    def test_threshold_alpha_range(self):
        with pytest.raises(SemanticsError):
            Selector("thresh", F(1))


class TestStrength:
    def test_worked_example_optimum_value(self, names):
        state = [names[k] for k in ("F1", "F2", "F3", "F6", "GR11", "GR12", "GR2")]
        tps = ParametricSemantics(Validator(Relation.TCON), Selector("id"), Aggregator("sum"))
        assert strength(tps, state) == F("5.2")

    def test_empty_state_scores_zero(self):
        tps = ParametricSemantics(Validator(Relation.TCON), Selector("id"), Aggregator("sum"))
        assert strength(tps, ()) == 0

    def test_validator_gates_multiplicatively(self, names):
        state = [names["F4"], names["F6"]]  # overlapping pair
        rejecting = ParametricSemantics(Validator(Relation.TCON), Selector("id"), Aggregator("sum"))
        accepting = ParametricSemantics(Validator(Relation.TINC), Selector("id"), Aggregator("sum"))
        assert strength(rejecting, state) == 0
        assert strength(accepting, state) == F("0.9")

    def test_strict_validator_never_beats_lenient_on_fixed_state(self):
        rng = random.Random(5)
        for _ in range(200):
            items = random_instantiation(rng)
            scores = {
                r: float(
                    strength(
                        ParametricSemantics(Validator(r), Selector("id"), Aggregator("sum")),
                        items,
                    )
                )
                for r in Relation
            }
            assert scores[Relation.TCON] <= scores[Relation.PCON] + 1e-9
            assert scores[Relation.PCON] <= scores[Relation.TINC] + 1e-9


class TestAgainstOracle:
    def test_single_state_scoring_matches_brute_force(self):
        # The validator, selector and aggregator of one state all run on the
        # interned state; the oracle evaluates relations on point sets and
        # scores in plain fractions.
        rng = random.Random(2022)
        combos = shipped_combinations()
        for _ in range(150):
            items = random_instantiation(rng)
            for relation in Relation:
                assert delta(relation, items) == brute_delta(relation.value, items)
            for config in combos:
                engine = strength(config, items)
                oracle = brute_strength(config, items)
                if config.aggregator.kind == "sum_alpha":
                    assert float(engine) == pytest.approx(float(oracle), abs=1e-9)
                else:
                    assert engine == oracle, (config, items)


class TestAudit:
    def run_audit(self, validator, sigma, theta, con=None, n=250, seed=0):
        rng = random.Random(seed)
        return audit_well_behaved(
            validator,
            sigma,
            theta,
            random_audit_samples(rng, n),
            con or RelationKind(Relation.TINC, negated=True),
            random_weight_tuples(rng, n),
        )

    def test_shipped_components_pass_all_conditions(self):
        report = self.run_audit(Validator(Relation.TINC), Selector("id"), Aggregator("sum"))
        assert report.passed, str(report)
        assert len(report.conditions) == 11

    def test_every_validator_satisfies_its_acceptance_condition(self):
        for relation in Relation:
            validator = Validator(relation)
            report = self.run_audit(
                validator, Selector("id"), Aggregator("sum"), con=validator.accepting_kind
            )
            cond = next(c for c in report.conditions if c.name == "delta-a")
            assert cond.passed and cond.trials > 0

    @pytest.mark.parametrize(
        "condition,break_theta",
        [
            ("theta-a", lambda base: lambda ws: F("0.1") if not ws else base(ws)),
            ("theta-b", lambda base: lambda ws: base(ws) - 1 if len(ws) == 1 else base(ws)),
            ("theta-d", lambda base: lambda ws: base(ws) + F(len(ws), 100)),
            ("theta-e", lambda base: lambda ws: float(base(ws[:-1])) - float(ws[-1]) if ws else 0),
        ],
    )
    def test_planted_aggregator_mutants_are_detected(self, condition, break_theta):
        base = Aggregator("sum")
        report = self.run_audit(Validator(Relation.TINC), Selector("id"), break_theta(base))
        assert condition in report.failures(), str(report)

    def test_planted_asymmetric_aggregator_detected(self):
        def lopsided(ws):
            return float(sum(ws)) + (float(ws[0]) if ws else 0.0)

        report = self.run_audit(Validator(Relation.TINC), Selector("id"), lopsided)
        assert "theta-c" in report.failures()

    @pytest.mark.parametrize(
        "condition,break_sigma",
        [
            ("sigma-a", lambda base: lambda items: (F(0),) if not items else base(items)),
            ("sigma-b", lambda base: lambda items: ()),
            (
                "sigma-c",
                lambda base: lambda items: tuple(
                    w if w != 0 else F("0.5") for w in base(items)
                ),
            ),
            ("sigma-d", lambda base: lambda items: base(items)[:-1]),
            (
                # Slots shrink as the state grows: the selected score can
                # drop on a consistent extension.
                "sigma-e",
                lambda base: lambda items: tuple(
                    max(w - F(len(items), 10), F(0)) for w in base(items)
                ),
            ),
        ],
    )
    def test_planted_selector_mutants_are_detected(self, condition, break_sigma):
        base = Selector("id")
        report = self.run_audit(Validator(Relation.TINC), break_sigma(base), Aggregator("sum"))
        assert condition in report.failures(), str(report)

    def test_planted_validator_mutant_is_detected(self):
        report = self.run_audit(lambda items: 0, Selector("id"), Aggregator("sum"))
        assert "delta-a" in report.failures()
