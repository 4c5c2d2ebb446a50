"""Knowledge-base container, support weights and grounding."""

import random
from fractions import Fraction

import pytest

from tmln import kernel, network
from tmln.kbformat import parse
from tmln.kernel import Constant, Literal, Rule, Signature, TimePoint, Variable, closure_literals
from tmln.network import (
    NotDerivableError,
    TMLN,
    WeightedFormula,
    as_weight,
    ground,
    support_weights,
    tf,
    weight_of,
    weight_str,
)
from tmln.oracle import brute_weight
from tmln.randgen import fresh_predicate_fact, random_tmln
from tmln.temporal import Timeline


def lit(pred, *args, lo, hi, positive=True):
    terms = tuple(Constant(a, "Obj") for a in args)
    return Literal(positive, pred, terms, TimePoint(lo), TimePoint(hi))


def wf(formula, w):
    return WeightedFormula(formula, Fraction(w))


class TestWeights:
    def test_range_enforced(self):
        with pytest.raises(Exception, match="outside"):
            as_weight("1.3")

    def test_decimal_rendering_is_exact(self):
        assert weight_str(Fraction("0.4")) == "0.4"
        assert weight_str(Fraction(1)) == "1"
        assert weight_str(Fraction("0.123456789")) == "0.123456789"
        assert weight_str(Fraction("0.40")) == "0.4"


class TestTf:
    def test_projection_merges_duplicates(self):
        a, b = lit("P", "A", lo=0, hi=1), lit("Q", "A", lo=0, hi=1)
        items = [wf(a, "0.4"), wf(b, 1)]
        assert tf(items) == {a, b}

    def test_empty(self):
        assert tf([]) == frozenset()

    def test_example_has_eight_formulae(self, oresme):
        assert len(tf(oresme)) == 8


class TestWeightOf:
    def test_negative_conclusion_weight(self, names):
        items = [names["F2"], names["F3"], names["GR2"]]
        target = names["GR2"].formula.conclusion
        assert weight_of(target, items) == Fraction("0.8")

    def test_singleton_support(self, oresme, names):
        assert weight_of(names["F4"].formula, oresme) == Fraction("0.4")

    def test_two_supports_take_the_better_minimum(self):
        # Brute-force enumeration over the 2^5 subsets of this bag gives two
        # minimal supports with minima 0.4 and 0.5; the weight is their max.
        a = lit("P", "A", lo=0, hi=1)
        b = lit("Q", "A", lo=0, hi=2)
        goal = lit("G", "A", lo=0, hi=3)
        r1 = Rule((a,), goal, label="R1")
        r2 = Rule((b,), goal, label="R2")
        items = [wf(a, "0.4"), wf(b, "0.5"), wf(r1, 1), wf(r2, 1), wf(lit("Z", "A", lo=0, hi=0), 1)]
        assert weight_of(goal, items) == Fraction("0.5")
        assert brute_weight(goal, items) == Fraction("0.5")

    def test_underivable_target_is_an_error(self, names):
        with pytest.raises(NotDerivableError):
            weight_of(lit("Person", "NO", lo=0, hi=0), [names["F4"]])

    def test_matches_oracle_on_random_kbs(self):
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            M = random_tmln(rng, max_mi=10)
            members = M.facts | M.rules
            if len(members) > 10:
                continue
            derivable = sorted(closure_literals(tf(M)), key=str)
            if not derivable:
                continue
            target = derivable[rng.randrange(len(derivable))]
            assert weight_of(target, M) == brute_weight(target, M)
            checked += 1


class TestGround:
    def test_example_instantiation_is_exact(self, oresme, names):
        mi = ground(oresme)
        extras = mi - oresme.facts
        assert len(extras) == 3
        weights = {wf_.formula.premises[-1].predicate: wf_.weight for wf_ in extras}
        assert names["GR11"].weight == Fraction("0.4")
        assert names["GR12"].weight == Fraction("0.5")
        assert names["GR2"].weight == Fraction("0.8")
        by_str = {str(wf_.formula): wf_.weight for wf_ in extras}
        assert by_str == {
            str(names["GR11"].formula): Fraction("0.4"),
            str(names["GR12"].formula): Fraction("0.5"),
            str(names["GR2"].formula): Fraction("0.8"),
        }

    def test_rule_free_kb_grounds_to_facts(self, oresme):
        M = TMLN(oresme.signature, oresme.timeline, oresme.facts, frozenset())
        assert ground(M) == oresme.facts

    def test_unsupported_premise_contributes_nothing(self, oresme):
        x = Variable("x", "Concept")
        orphan = Rule(
            (Literal(True, "PeasantFamily", (x,), Variable("t", "Time"), Variable("u", "Time")),),
            Literal(True, "Person", (x,), TimePoint(1300), TimePoint(1400)),
            label="R9",
        )
        M = TMLN(
            oresme.signature,
            oresme.timeline,
            oresme.facts,
            frozenset({WeightedFormula(orphan, Fraction("0.9"))}),
        )
        assert ground(M) == oresme.facts

    def test_instance_weight_bounded_by_rule_and_premises(self, oresme):
        for wf_ in ground(oresme) - oresme.facts:
            rule_weight = max(r.weight for r in oresme.rules)
            assert wf_.weight <= rule_weight
            for premise in wf_.formula.premises:
                assert wf_.weight <= weight_of(premise, oresme)

    def test_fresh_zero_fact_adds_only_zero_weight(self, oresme):
        rng = random.Random(1)
        extended, added = fresh_predicate_fact(oresme, rng, Fraction(0))
        new = ground(extended) - ground(oresme)
        assert new == {added}
        assert all(wf_.weight == 0 for wf_ in new)

    def test_conclusion_only_variable_is_reported_and_not_grounded(self):
        x = Variable("x", "Obj")
        s, t, u = (Variable(n, "Time") for n in "stu")
        loose = Rule((Literal(True, "P", (x,), t, u),), Literal(True, "Q", (x,), s, u), label="R1")
        fact = wf(lit("P", "A", lo=0, hi=3), "0.5")
        M = TMLN(obj_signature("P", "Q"), Timeline(0, 5), frozenset({fact}), frozenset({wf(loose, "0.9")}))
        assert M.validate() == [
            "rule R1: P(x, t, u) => Q(x, s, u): conclusion variables ['s'] do not occur in any premise"
        ]
        assert ground(M) == {fact}
        assert support_weights(M) == {fact.formula: Fraction("0.5")}

    def test_chained_rules_weight_through_support(self):
        # A premise only derivable through another instance: its support
        # weight (and so the chained instance's weight) is the chain minimum.
        sig = Signature(
            sorts=frozenset({"Obj", "Time"}),
            constants={"A": "Obj"},
            predicates={"P": ("Obj",), "Q": ("Obj",), "S": ("Obj",)},
        )
        x = Variable("x", "Obj")
        t, u = Variable("t", "Time"), Variable("u", "Time")
        base = lit("P", "A", lo=0, hi=5)
        step = Rule((Literal(True, "P", (x,), t, u),), Literal(True, "Q", (x,), TimePoint(0), TimePoint(5)), label="R1")
        top = Rule((Literal(True, "Q", (x,), t, u),), Literal(True, "S", (x,), TimePoint(0), TimePoint(5)), label="R2")
        M = TMLN(
            sig,
            Timeline(0, 5),
            frozenset({wf(base, "0.6")}),
            frozenset({wf(step, "0.9"), wf(top, "0.7")}),
        )
        mi = ground(M)
        weights = {str(m.formula): m.weight for m in mi}
        assert weights["R1: P(A, 0, 5) => Q(A, 0, 5)"] == Fraction("0.6")
        assert weights["R2: Q(A, 0, 5) => S(A, 0, 5)"] == Fraction("0.6")


def obj_signature(*preds):
    return Signature(
        sorts=frozenset({"Obj", "Time"}),
        constants={"A": "Obj", "B": "Obj"},
        predicates={p: ("Obj",) for p in preds},
    )


def people_kb(n):
    """N independent people, four facts each, two chained rules."""
    lines = ["sort Agent", "timeline 0 100"]
    names = [f"P{i:02d}" for i in range(n)]
    lines += [f"const {name} : Agent" for name in names]
    lines += [f"pred {p}(Agent)" for p in ("Person", "Studied", "Worked", "Skilled", "Hired")]
    for i, name in enumerate(names):
        for j, (sign, pred) in enumerate((("", "Person"), ("", "Studied"), ("", "Worked"), ("!", "Hired"))):
            lines.append(f"fact {sign}{pred}({name}, {i}, {i + j + 1}) : 0.{(i + j) % 9 + 1}")
    lines.append("rule R1 : 0.8 { Person(x, t1, u1) & Studied(x, t2, u2) => Skilled(x, TMIN, TMAX) }")
    lines.append(
        "rule R2 : 0.7 { Person(x, t1, u1) & Skilled(x, t2, u2) & Worked(x, t3, u3)"
        " => Hired(x, TMIN, TMAX) }"
    )
    outcome = parse("\n".join(lines) + "\n")
    assert outcome.ok, [str(d) for d in outcome.diagnostics]
    return outcome.tmln


class TestSupportWeights:
    def test_every_derivable_literal_matches_oracle(self):
        rng = random.Random(7)
        checked = 0
        while checked < 150:
            M = random_tmln(rng, max_mi=10)
            if len(M.facts | M.rules) > 10:
                continue
            weights = support_weights(M)
            assert weights.keys() == closure_literals(tf(M))
            for target, w in weights.items():
                assert w == brute_weight(target, M), target
            checked += 1

    def test_cycle_matches_oracle(self):
        sig = obj_signature("P", "Q")
        x = Variable("x", "Obj")
        t, u = Variable("t", "Time"), Variable("u", "Time")
        p = Literal(True, "P", (x,), t, u)
        q = Literal(True, "Q", (x,), t, u)
        M = TMLN(
            sig,
            Timeline(0, 5),
            frozenset({wf(lit("P", "A", lo=0, hi=3), "0.9"), wf(lit("Q", "B", lo=1, hi=2), "0.6")}),
            frozenset({wf(Rule((p,), q, label="PQ"), "0.3"), wf(Rule((q,), p, label="QP"), "0.8")}),
        )
        weights = support_weights(M)
        assert len(weights) == 4
        for target, w in weights.items():
            assert w == brute_weight(target, M), target
        assert weights[lit("Q", "A", lo=0, hi=3)] == Fraction("0.3")
        assert weights[lit("P", "B", lo=1, hi=2)] == Fraction("0.6")

    def test_duplicate_fact_takes_the_larger_weight(self):
        a = lit("P", "A", lo=0, hi=1)
        items = [wf(a, "0.3"), wf(a, "0.7")]
        assert support_weights(items) == {a: Fraction("0.7")}
        assert weight_of(a, items) == brute_weight(a, items) == Fraction("0.7")

    def test_ground_of_disjoint_union_is_union_of_grounds(self):
        rng = random.Random(11)
        for _ in range(20):
            M1, M2 = random_tmln(rng, max_mi=8), random_tmln(rng, max_mi=8)
            # Rename every predicate of M2 so the two KBs share no atom.
            renamed = {name: name + "2" for name in M2.signature.predicates}

            def rename(f):
                if isinstance(f, Literal):
                    return Literal(f.positive, renamed[f.predicate], f.args, f.lower, f.upper)
                return Rule(tuple(rename(p) for p in f.premises), rename(f.conclusion), f.label)

            facts2 = frozenset(WeightedFormula(rename(m.formula), m.weight) for m in M2.facts)
            rules2 = frozenset(WeightedFormula(rename(m.formula), m.weight) for m in M2.rules)
            sig = Signature(
                sorts=M1.signature.sorts | M2.signature.sorts,
                constants={**M1.signature.constants, **M2.signature.constants},
                predicates={
                    **M1.signature.predicates,
                    **{renamed[k]: v for k, v in M2.signature.predicates.items()},
                },
            )
            N2 = TMLN(sig, M2.timeline, facts2, rules2)
            union = TMLN(sig, M1.timeline, M1.facts | facts2, M1.rules | rules2)
            assert ground(union) == ground(M1) | ground(N2)

    def test_grounding_is_one_closure_whatever_the_number_of_people(self, monkeypatch):
        counts = {"match_premises": 0, "weight_of": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        match = counting("match_premises", kernel.match_premises)
        monkeypatch.setattr(kernel, "match_premises", match)
        monkeypatch.setattr(network, "match_premises", match)
        monkeypatch.setattr(network, "weight_of", counting("weight_of", network.weight_of))
        calls = []
        for n in (5, 40):
            M = people_kb(n)
            counts.update(match_premises=0, weight_of=0)
            mi = ground(M)
            assert len(mi) == 6 * n
            calls.append(dict(counts))
        assert calls[0] == calls[1]
        assert calls[0]["weight_of"] == 0
