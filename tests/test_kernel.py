"""Signature validation, substitution and derivability."""

import pytest
from hypothesis import given

from tmln.kernel import (
    BindingError,
    Constant,
    GroundnessError,
    Literal,
    Signature,
    TimePoint,
    Variable,
    closure_literals,
    derive_closure,
    entails,
    substitute,
    validate_signature,
)

from strategies import formula_sets


def lit(pred, *args, lo, hi, positive=True):
    terms = tuple(Constant(a, "Concept") for a in args)
    return Literal(positive, pred, terms, TimePoint(lo), TimePoint(hi))


class TestValidateSignature:
    def test_declared_predicate_is_valid(self):
        sig = Signature(
            sorts=frozenset({"Concept", "Time"}),
            constants={"NO": "Concept"},
            predicates={"Person": ("Concept",)},
        )
        assert validate_signature(sig) == []
        assert sig.effective_arity("Person") == 3

    def test_zero_argument_predicate_rejected(self):
        sig = Signature(
            sorts=frozenset({"Concept", "Time"}),
            predicates={"Empty": ()},
        )
        report = validate_signature(sig)
        assert any("arity < 3" in line for line in report)

    def test_constant_of_unknown_sort(self):
        sig = Signature(
            sorts=frozenset({"Concept", "Time"}),
            constants={"CoN": "College"},
        )
        report = validate_signature(sig)
        assert any("unknown sort" in line and "CoN" in line for line in report)

    def test_duplicates_are_impossible_by_construction(self):
        # Mappings cannot hold duplicate names; nothing to report.
        sig = Signature(
            sorts=frozenset({"Concept", "Time"}),
            constants={"A": "Concept"},
            predicates={"P": ("Concept",)},
        )
        assert validate_signature(sig) == []


class TestSubstitute:
    def test_example_rule_instantiates_to_ground_instance(self, names):
        rule = names["R1"].formula
        x = Variable("x", "Concept")
        binding = {
            x: Constant("NO", "Concept"),
            Variable("t1", "Time"): TimePoint(1320),
            Variable("u1", "Time"): TimePoint(1382),
            Variable("t2", "Time"): TimePoint(1320),
            Variable("u2", "Time"): TimePoint(1382),
            Variable("t3", "Time"): TimePoint(1340),
            Variable("u3", "Time"): TimePoint(1354),
        }
        result = substitute(rule, binding)
        assert result == names["GR11"].formula
        assert result.is_ground

    def test_ground_rule_with_empty_binding_is_identity(self, names):
        gr = names["GR11"].formula
        assert substitute(gr, {}) == gr

    def test_missing_variable_is_an_error(self, names):
        rule = names["R1"].formula
        with pytest.raises(BindingError, match="uncovered variable"):
            substitute(rule, {Variable("x", "Concept"): Constant("NO", "Concept")})

    def test_premises_commute_with_substitution(self, names):
        from tmln.kernel import substitute_literal

        rule = names["R1"].formula
        binding = {
            Variable("x", "Concept"): Constant("NO", "Concept"),
            Variable("t1", "Time"): TimePoint(1320),
            Variable("u1", "Time"): TimePoint(1382),
            Variable("t2", "Time"): TimePoint(1320),
            Variable("u2", "Time"): TimePoint(1382),
            Variable("t3", "Time"): TimePoint(1355),
            Variable("u3", "Time"): TimePoint(1360),
        }
        whole = substitute(rule, binding)
        piecewise = tuple(substitute_literal(p, binding) for p in rule.premises)
        assert whole.premises == piecewise


class TestDeriveClosure:
    def test_conjunction_decomposes_into_both_facts(self):
        a = lit("P", "A", lo=1, hi=2)
        b = lit("P", "B", lo=1, hi=2)
        assert closure_literals([a, b]) == {a, b}

    def test_empty_closure(self):
        assert derive_closure([]) == frozenset()

    def test_non_ground_literal_is_rejected(self):
        loose = Literal(True, "P", (Variable("x", "Concept"),), TimePoint(1), TimePoint(2))
        with pytest.raises(GroundnessError, match="non-ground literal"):
            derive_closure([loose])

    def test_weighted_view_agrees_with_the_unweighted_one(self, oresme):
        pairs = [(m.formula, m.weight) for m in oresme.facts | oresme.rules]
        weighted = derive_closure(pairs)
        assert weighted == derive_closure(f for f, _ in pairs)
        assert weighted.weights.keys() == closure_literals(f for f, _ in pairs)
        assert len(weighted.fired) == 3

    def test_negative_conclusion_is_derived(self, names):
        # Brute-force check by hand: GR2's premises are both present, so its
        # negative conclusion joins the closure; nothing else fires.
        formulae = [names["F2"].formula, names["F3"].formula, names["GR2"].formula]
        derived = closure_literals(formulae)
        negative = [l for l in derived if not l.positive]
        assert len(negative) == 1
        assert str(negative[0]) == "!PeasantFamily(NO, 1300, 1400)"
        assert len(derived) == 3

    def test_no_explosion_from_complementary_pair(self):
        p = lit("P", "A", lo=1, hi=2)
        q = lit("P", "A", lo=1, hi=2, positive=False)
        assert closure_literals([p, q]) == {p, q}

    @given(formula_sets(), formula_sets())
    def test_monotone(self, phi, psi):
        small = closure_literals(phi)
        big = closure_literals(phi + psi)
        assert small <= big

    @given(formula_sets())
    def test_idempotent(self, phi):
        once = derive_closure(phi)
        assert derive_closure(once) == once


class TestEntails:
    def test_example_rule_firing(self, names):
        formulae = [
            names["F1"].formula,
            names["F3"].formula,
            names["F4"].formula,
            names["GR11"].formula,
        ]
        target = names["GR11"].formula.conclusion
        assert entails(formulae, target)

    def test_nothing_follows_from_nothing(self, names):
        assert not entails([], names["F4"].formula)

    def test_membership_is_entailment(self, names):
        f4 = names["F4"].formula
        assert entails([f4], f4)

    @given(formula_sets())
    def test_agrees_with_brute_force_oracle(self, phi):
        from tmln.oracle import brute_closure

        if len(phi) > 8:
            phi = phi[:8]
        engine = closure_literals(phi)
        assert engine == brute_closure(phi)
