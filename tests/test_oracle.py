"""The brute-force reference implementations against the engine."""

import random
from fractions import Fraction

import pytest

from tmln.kernel import closure_literals
from tmln.network import tf, weight_of
from tmln.oracle import (
    OracleBoundError,
    brute_classical_optimum,
    brute_closure,
    brute_map,
    brute_weight,
    digest,
    minimal_supports,
)
from tmln.inference import map_exhaustive
from tmln.randgen import random_formula_set, random_tmln
from tmln.semantics import Aggregator, ParametricSemantics, Selector, Validator
from tmln.temporal import Relation


class TestBruteClosure:
    def test_matches_engine_on_the_example(self, oresme, oresme_mi):
        formulae = sorted(tf(oresme_mi), key=str)
        assert brute_closure(formulae) == closure_literals(formulae)

    def test_empty(self):
        assert brute_closure([]) == frozenset()

    def test_randomized_equivalence(self):
        rng = random.Random(31)
        for _ in range(1000):
            phi = random_formula_set(rng, max_literals=5)
            assert brute_closure(phi[:8]) == closure_literals(phi[:8])

    def test_size_bound(self):
        rng = random.Random(1)
        phi = [f for _ in range(5) for f in random_formula_set(rng, max_literals=4)]
        if len(phi) > 12:
            with pytest.raises(OracleBoundError):
                brute_closure(phi)


class TestBruteWeight:
    def test_example_fact_weights(self, oresme, names):
        for key, expected in (("F4", "0.4"), ("F5", "0.7"), ("F1", "1"), ("F3", "1")):
            lit = names[key].formula
            assert brute_weight(lit, oresme) == Fraction(expected)
            assert brute_weight(lit, oresme) == weight_of(lit, oresme)

    def test_derived_conclusion_weights(self, oresme, names):
        positive = names["GR11"].formula.conclusion
        negative = names["GR2"].formula.conclusion
        assert brute_weight(positive, oresme) == Fraction("0.5")
        assert brute_weight(negative, oresme) == Fraction("0.8")

    def test_bound(self, oresme):
        with pytest.raises(OracleBoundError):
            brute_weight(next(iter(oresme.facts)).formula, oresme, bound=3)

    def test_minimal_supports_are_minimal(self, names):
        items = [names["F1"], names["F3"], names["F4"], names["GR11"]]
        target = names["GR11"].formula.conclusion
        supports = minimal_supports(target, items)
        assert supports == [frozenset(items)]


class TestBruteMap:
    def test_matches_engine_on_example_configs(self, oresme):
        for relation in (Relation.TCON, Relation.PCON, Relation.TINC):
            for selector in (Selector("id"), Selector("rule")):
                config = ParametricSemantics(Validator(relation), selector, Aggregator("sum"))
                states, best = brute_map(oresme, config)
                engine = map_exhaustive(oresme, config)
                assert set(engine.instantiations) == set(states)
                assert float(engine.strength) == pytest.approx(best, abs=1e-9)

    def test_empty_kb(self, oresme):
        from tmln.kernel import Signature
        from tmln.network import TMLN
        from tmln.temporal import Timeline

        empty = TMLN(Signature(sorts=frozenset({"Concept", "Time"})), Timeline(0, 3))
        config = ParametricSemantics(Validator(Relation.TCON), Selector("id"), Aggregator("sum"))
        states, best = brute_map(empty, config)
        assert states == frozenset({frozenset()})
        assert best == 0.0

    def test_random_sweep_against_engine(self):
        rng = random.Random(77)
        for trial in range(20):
            M = random_tmln(rng, max_mi=8)
            config = ParametricSemantics(
                Validator(list(Relation)[trial % 4]),
                Selector("rule") if trial % 2 else Selector("id"),
                Aggregator("psum") if trial % 3 == 0 else Aggregator("sum"),
            )
            states, best = brute_map(M, config)
            engine = map_exhaustive(M, config)
            assert set(engine.instantiations) == set(states)


class TestClassicalOptimum:
    def test_consistent_subsets_only(self, oresme):
        states, best = brute_classical_optimum(oresme)
        # Strict clashes come only from the derived complementary conclusions.
        engine = map_exhaustive(
            oresme,
            ParametricSemantics(Validator(Relation.TINC), Selector("id"), Aggregator("sum")),
        )
        assert float(engine.strength) == pytest.approx(best, abs=1e-9)
        assert set(engine.instantiations) == set(states)


def test_digest_is_stable():
    assert digest(["b", "a"]) == digest(["a", "b"])
    assert digest(["a"]) != digest(["b"])


class TestShrinker:
    def test_greedy_shrink_finds_a_local_minimum(self):
        from tmln.properties import shrink_formulae
        from tmln.kernel import Constant, Literal, TimePoint

        def lit(name, lo, hi, positive=True):
            return Literal(positive, name, (Constant("A", "Obj"),), TimePoint(lo), TimePoint(hi))

        # "Failure" = some complementary pair overlaps; the minimum is a pair.
        noise = [lit("P", 0, 1), lit("Q", 2, 3), lit("Q", 4, 5)]
        culprit = [lit("S", 0, 5), lit("S", 3, 8, positive=False)]

        def failing(formulae):
            from tmln.temporal import RelationKind, relation_holds

            return relation_holds(RelationKind.from_token("pInc"), formulae)

        shrunk = shrink_formulae(noise + culprit, failing)
        assert sorted(map(str, shrunk)) == sorted(map(str, culprit))
