"""Intervals, homogenization and the consistency relation lattice."""

import random

import pytest
from hypothesis import given

from tmln.kernel import Literal, Rule, TimePoint, closure_literals
from tmln.network import canonical_order, ground
from tmln.randgen import random_formula_set, random_tmln
from tmln.temporal import (
    GroundState,
    Relation,
    RelationKind,
    TemporalError,
    Timeline,
    _clash,
    relation_holds,
    tau,
    ti,
)

from strategies import formula_sets


def rel(token, formulae):
    return relation_holds(RelationKind.from_token(token), formulae)


class TestTi:
    def test_fifteen_points(self):
        interval = ti(1340, 1354)
        assert len(interval) == 15
        assert list(interval)[0] == 1340 and list(interval)[-1] == 1354

    def test_full_timeline(self):
        tl = Timeline(1300, 1400)
        assert ti(tl.lower, tl.upper, tl) == tl.span()

    def test_inverted_bounds(self):
        with pytest.raises(TemporalError, match="inverted"):
            ti(1360, 1355)

    def test_outside_timeline(self):
        with pytest.raises(TemporalError, match="outside"):
            ti(5, 20, Timeline(0, 10))


class TestTau:
    def test_bounds_become_maximal(self, oresme, names):
        out = tau([names["F4"].formula], oresme.timeline)
        (widened,) = out
        assert str(widened) == "Studied(NO, CoN, 1300, 1400)"

    def test_fixpoint_on_already_maximal(self, oresme, names):
        conclusion = names["R1"].formula.conclusion
        assert tau([conclusion], oresme.timeline) == frozenset({conclusion})

    def test_applies_inside_rules(self, oresme, names):
        (widened,) = tau([names["R1"].formula], oresme.timeline)
        assert isinstance(widened, Rule)
        for p in widened.premises:
            assert (p.lower, p.upper) == (TimePoint(1300), TimePoint(1400))

    @given(formula_sets())
    def test_idempotent(self, phi):
        tl = Timeline(0, 12)
        assert tau(tau(phi, tl), tl) == tau(phi, tl)


class TestRelationHolds:
    def test_overlapping_example(self, names):
        # Studied(1340..1354) against its negation on (1353..1370): the
        # two-point overlap makes it partially inconsistent yet still
        # partially consistent, and neither totally consistent nor totally
        # inconsistent.  Derived by interval arithmetic on the bounds.
        phi = [names["F4"].formula, names["F6"].formula]
        assert rel("pInc", phi) is True
        assert rel("tCon", phi) is False
        assert rel("pCon", phi) is True
        assert rel("tInc", phi) is False

    def test_equal_intervals(self):
        a = Literal(True, "P", (), TimePoint(1), TimePoint(2))
        b = a.negated()
        assert rel("tInc", [a, b]) is True
        assert rel("pCon", [a, b]) is False

    def test_vacuous_without_complementary_pair(self, names):
        phi = [names["F4"].formula, names["F5"].formula]
        assert rel("tCon", phi) is True
        assert rel("pCon", phi) is True
        assert rel("pInc", phi) is False
        assert rel("tInc", phi) is False

    def test_negated_kind_is_complement(self, names):
        phi = [names["F4"].formula, names["F6"].formula]
        for token in ("pCon", "tCon", "pInc", "tInc"):
            assert rel("!" + token, phi) == (not rel(token, phi))

    def test_scans_derived_literals(self, names):
        # GR2's conclusion only exists in the closure; the scan must see it.
        phi = [
            names["F2"].formula,
            names["F3"].formula,
            names["GR2"].formula,
            names["GR11"].formula.conclusion,  # positive PeasantFamily literal
        ]
        assert rel("tInc", phi) is True


class TestLattice:
    @given(formula_sets())
    def test_complementarity(self, phi):
        assert rel("tCon", phi) == (not rel("pInc", phi))

    @given(formula_sets())
    def test_subsumption(self, phi):
        if rel("pCon", phi):
            assert not rel("tInc", phi)
        if rel("tInc", phi):
            assert not rel("pCon", phi)
        if not rel("pCon", phi):
            assert rel("pInc", phi)
        if not rel("pInc", phi):
            assert rel("pCon", phi)

    @given(formula_sets())
    def test_inclusion_chain(self, phi):
        if rel("tCon", phi):
            assert rel("pCon", phi)
        if rel("pCon", phi):
            assert not rel("tInc", phi)

    def test_seeded_sweep_matches_lattice(self):
        rng = random.Random(20240801)
        for _ in range(300):
            phi = random_formula_set(rng)
            assert rel("tCon", phi) == (not rel("pInc", phi))

    @given(formula_sets())
    def test_closure_noise_is_invisible(self, phi):
        from tmln.kernel import closure_literals

        derived = sorted(closure_literals(phi), key=str)
        if not derived:
            return
        extended = list(phi) + [derived[0]]
        for token in ("pCon", "tCon", "pInc", "tInc"):
            assert rel(token, extended) == rel(token, phi)


class TestGroundState:
    def test_every_subset_matches_a_from_scratch_scan(self):
        # Masks are visited in random order, so many are built from parents
        # that are not memoized yet.
        rng = random.Random(9)
        checked = clashing = 0
        while checked < 40:
            M = random_tmln(rng, max_mi=9)
            formulae = [wf.formula for wf in canonical_order(ground(M))]
            if not any(isinstance(f, Rule) for f in formulae):
                continue
            checked += 1
            state = GroundState(formulae)
            # Every closure literal is a member's fact or conclusion.
            bits = {}
            for i, f in enumerate(formulae):
                if isinstance(f, Rule):
                    bits[f.conclusion] = state.concl_bit[i]
                else:
                    bits[f] = state.fact_bit[i]
            masks = list(range(1 << len(formulae)))
            rng.shuffle(masks)
            for mask in masks:
                closure = closure_literals(f for i, f in enumerate(formulae) if mask >> i & 1)
                kinds = 0
                for a in closure:
                    for b in closure:
                        if a.positive and not b.positive and (a.predicate, a.args) == (
                            b.predicate, b.args
                        ):
                            kinds |= _clash(ti(a.lower, a.upper), ti(b.lower, b.upper))
                lits = state.closure_bits(mask)
                assert bin(lits).count("1") == len(closure)
                assert {lit for lit, bit in bits.items() if lits & bit} == closure
                assert state.clashes(mask) == kinds
                clashing += kinds != 0
        assert clashing > 100
