"""Most-probable-state inference and conclusion queries on the worked example.

Expected optima here were frozen from the brute-force oracle (all-subsets
enumeration with independently evaluated relations and scoring); the engine
must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from tmln.inference import (
    BoundExceededError,
    InferenceError,
    QueryError,
    conclusions,
    map_batch,
    map_exhaustive,
    map_pruned,
    parse_query,
)
from tmln.kbformat import parse
from tmln.kernel import Constant, Literal, Signature, TimePoint
from tmln.network import TMLN, WeightedFormula, ground, weight_str
from tmln.oracle import brute_map
from tmln.randgen import random_tmln
from tmln.semantics import (
    Aggregator,
    ParametricSemantics,
    Selector,
    Validator,
    scores_equal,
    shipped_combinations,
)
from tmln.temporal import GroundState, Relation, Timeline

F = Fraction


def tps(delta, sigma="id", theta="sum", alpha=2.0):
    selector = Selector(sigma) if sigma != "thresh" else Selector("thresh", F("0.25"))
    aggregator = Aggregator(theta, alpha) if theta == "sum_alpha" else Aggregator(theta)
    return ParametricSemantics(Validator(Relation.from_token(delta)), selector, aggregator)


def display_sets(result, names):
    """Optimal states as short-name sets, certain facts and zero slots omitted."""
    reverse = {wf: key for key, wf in names.items()}
    out = set()
    for entry in result.entries:
        suppressed = set(entry.suppressed)
        shown = frozenset(
            reverse[wf]
            for wf in entry.instantiation
            if reverse[wf] not in ("F1", "F2", "F3") and wf not in suppressed
        )
        out.add(shown)
    return out


def sets(*groups):
    return {frozenset(g.split()) for g in groups}


# Oracle-verified optima for the standard 12-configuration sweep.
EXPECTED = [
    ("tCon", "id", "sum", "5.2", sets("F6 GR11 GR12 GR2")),
    ("pCon", "id", "sum", "5.2", sets("F4 F6 GR12 GR2", "F6 GR11 GR12 GR2")),
    ("tInc", "id", "sum", "5.5", sets("F4 F5 F6 GR11 GR12")),
    ("tCon", "id", "sum_alpha", None, sets("F6 GR11 GR12 GR2")),
    ("pCon", "id", "sum_alpha", None, sets("F4 F6 GR12 GR2", "F6 GR11 GR12 GR2")),
    ("tInc", "id", "sum_alpha", None, sets("F4 F5 F6 GR2", "F5 F6 GR11 GR2")),
    ("tCon", "rule", "sum", "5", sets("F4 F5 GR11 GR12")),
    ("pCon", "rule", "sum", "5", sets("F4 F5 GR11 GR12")),
    ("tInc", "rule", "sum", "5.5", sets("F4 F5 F6 GR11 GR12")),
    ("tCon", "rule", "sum_alpha", None, sets("F4 F5 GR2")),
    ("pCon", "rule", "sum_alpha", None, sets("F4 F5 GR2")),
    ("tInc", "rule", "sum_alpha", None, sets("F4 F5 F6 GR2")),
]


class TestMapExhaustive:
    def test_strictest_validator_keeps_the_negation_story(self, oresme, names):
        result = map_exhaustive(oresme, tps("tCon"))
        assert display_sets(result, names) == sets("F6 GR11 GR12 GR2")
        assert result.strength == F("5.2")
        (entry,) = result.entries
        assert len(entry.instantiation) == 7  # certain facts are members

    def test_two_way_tie_under_quadratic_weighting(self, oresme, names):
        result = map_exhaustive(oresme, tps("tInc", theta="sum_alpha"))
        assert display_sets(result, names) == sets("F4 F5 F6 GR2", "F5 F6 GR11 GR2")

    def test_all_twelve_configurations(self, oresme, names):
        configs = [tps(d, s, t) for d, s, t, _, _ in EXPECTED]
        results = map_batch(oresme, configs)
        for (d, s, t, strength_text, expected), result in zip(EXPECTED, results):
            assert display_sets(result, names) == expected, (d, s, t)
            if strength_text is not None:
                assert result.strength == F(strength_text), (d, s, t)

    def test_empty_kb_has_one_empty_optimum(self):
        empty = TMLN(
            Signature(sorts=frozenset({"Concept", "Time"})),
            Timeline(0, 5),
        )
        result = map_exhaustive(empty, tps("tCon"))
        assert result.instantiations == (frozenset(),)
        assert result.strength == 0

    def test_bound_exceeded_points_to_pruned(self, oresme):
        with pytest.raises(BoundExceededError, match="pruned"):
            map_exhaustive(oresme, tps("tCon"), bound=5)

    def test_env_var_overrides_bound(self, oresme, monkeypatch):
        monkeypatch.setenv("TMLN_EXHAUSTIVE_BOUND", "5")
        with pytest.raises(BoundExceededError):
            map_exhaustive(oresme, tps("tCon"))

    def test_zero_weight_everything_keeps_full_state(self, oresme):
        zeroed = TMLN(
            oresme.signature,
            oresme.timeline,
            frozenset(WeightedFormula(wf.formula, F(0)) for wf in oresme.facts),
            frozenset(),
        )
        result = map_exhaustive(zeroed, tps("tInc"))
        assert result.strength == 0
        assert result.instantiations == (frozenset(ground_of(zeroed)),)


def ground_of(M):
    from tmln.network import ground

    return ground(M)


class TestMapPruned:
    def test_agrees_on_all_twelve_configurations(self, oresme):
        for d, s, t, _, _ in EXPECTED:
            config = tps(d, s, t)
            exhaustive = map_exhaustive(oresme, config)
            pruned = map_pruned(oresme, config)
            assert set(pruned.instantiations) == set(exhaustive.instantiations)
            assert float(pruned.strength) == pytest.approx(float(exhaustive.strength), abs=1e-9)

    def test_single_fact_kb(self, oresme, names):
        M = TMLN(oresme.signature, oresme.timeline, frozenset({names["F4"]}), frozenset())
        result = map_pruned(M, tps("tCon"))
        assert result.instantiations == (frozenset({names["F4"]}),)

    def test_random_sweep_equivalence(self, oresme):
        rng = random.Random(17)
        combos = shipped_combinations()
        for trial in range(25):
            M = random_tmln(rng, max_mi=9)
            config = combos[trial % len(combos)]
            assert set(map_pruned(M, config).instantiations) == set(
                map_exhaustive(M, config).instantiations
            )

    def test_batch_equals_exhaustive_on_every_config(self):
        rng = random.Random(23)
        combos = shipped_combinations()
        for _ in range(10):
            M = random_tmln(rng, max_mi=10)
            for config, batch in zip(combos, map_batch(M, combos)):
                exhaustive = map_exhaustive(M, config)
                assert set(batch.instantiations) == set(exhaustive.instantiations)
                assert scores_equal(batch.strength, exhaustive.strength)

    @pytest.mark.parametrize(
        "search",
        [map_pruned, lambda M, config: map_batch(M, [config]), map_exhaustive],
        ids=["map_pruned", "map_batch", "map_exhaustive"],
    )
    def test_custom_component_rejected(self, oresme, search):
        validator, selector, aggregator = Validator(Relation.TCON), Selector("id"), Aggregator("sum")
        for bad in (
            ParametricSemantics(validator, selector, lambda ws: float(len(ws))),
            ParametricSemantics(lambda items: 1, selector, aggregator),
            ParametricSemantics(validator, lambda items: (), aggregator),
        ):
            with pytest.raises(InferenceError, match="certificate"):
                search(oresme, bad)

    def test_aggregator_is_not_called_per_node(self, monkeypatch):
        """The bound is carried down the search: ``Aggregator.__call__`` only
        reports the strength of the result, however many nodes are visited."""
        counts = {"aggregate": 0, "nodes": 0}
        aggregate, holds = Aggregator.__call__, GroundState.holds

        def counted_aggregate(self, weights):
            counts["aggregate"] += 1
            return aggregate(self, weights)

        def counted_holds(self, kind, mask):
            counts["nodes"] += 1
            return holds(self, kind, mask)

        monkeypatch.setattr(Aggregator, "__call__", counted_aggregate)
        monkeypatch.setattr(GroundState, "holds", counted_holds)
        visited = set()
        for size, search in ((4, map_pruned), (14, map_pruned), (8, map_exhaustive)):
            M = parse(chain_kb(size)).tmln
            for config in shipped_combinations():
                counts.update(aggregate=0, nodes=0)
                search(M, config)
                assert counts["aggregate"] <= 1, (size, config, search)
                visited.add(counts["nodes"])
        assert min(visited) <= 10 and max(visited) >= 200

    def test_non_decimal_weights_match_the_oracle(self):
        """Weights and the threshold with denominators 3 and 7: every search
        equals brute force under all 36 shipped combinations."""
        rng = random.Random(37)
        combos = shipped_combinations(thresh_alpha=F(2, 7))
        # Ties across denominators: 1/3 + 2/3 against 1 under sum, and
        # psum(1/2, 1/3) against 2/3; each negative fact clashes with both
        # positive facts on its constant.
        tied = []
        for name, low, high, alone in (("A", F(1, 3), F(2, 3), F(1)), ("B", F(1, 2), F(1, 3), F(2, 3))):
            a = Constant(name, "Obj")
            tied += [
                WeightedFormula(Literal(True, "P", (a,), TimePoint(0), TimePoint(3)), low),
                WeightedFormula(Literal(True, "P", (a,), TimePoint(6), TimePoint(9)), high),
                WeightedFormula(Literal(False, "P", (a,), TimePoint(2), TimePoint(7)), alone),
            ]
        randomized = [
            non_decimal(rng, [wf.formula for wf in ground(random_tmln(rng, max_mi=8))])
            for _ in range(8)
        ]
        for M in [frozenset(tied[:3]), frozenset(tied[3:]), frozenset(tied)] + randomized:
            for config, batch in zip(combos, map_batch(M, combos)):
                states, best = brute_map(M, config)
                for result in (batch, map_pruned(M, config), map_exhaustive(M, config)):
                    assert set(result.instantiations) == set(states), config
                    assert scores_equal(result.strength, best), config

    def test_psum_on_twelve_non_decimal_members(self):
        rng = random.Random(41)
        members = []
        for k in range(6):
            a = Constant(f"A{k}", "Obj")
            members += [
                Literal(True, "P", (a,), TimePoint(0), TimePoint(5)),
                Literal(False, "P", (a,), TimePoint(rng.randint(3, 6)), TimePoint(8)),
            ]
        M = non_decimal(rng, members)
        for config in shipped_combinations(thresh_alpha=F(1, 3)):
            if config.aggregator.kind != "psum" or config.validator.relation not in (
                Relation.TCON, Relation.TINC
            ):
                continue
            states, best = brute_map(M, config)
            for result in (map_pruned(M, config), map_exhaustive(M, config)):
                assert set(result.instantiations) == set(states), config
                assert result.strength == best, config

    def test_non_integer_exponent_matches_the_oracle(self):
        """``sum_alpha`` with a non-integer or a huge exponent ranks by floats."""
        rng = random.Random(43)
        for _ in range(6):
            M = random_tmln(rng, max_mi=9)
            for alpha in (1.5, 2.5, 65.0, 1e300):
                for config in shipped_combinations(sum_alpha=alpha)[1::3]:
                    states, best = brute_map(M, config)
                    (batch,) = map_batch(M, [config])
                    for result in (batch, map_pruned(M, config), map_exhaustive(M, config)):
                        assert set(result.instantiations) == set(states), config
                        assert scores_equal(result.strength, best), config


def chain_kb(size):
    """Facts on one atom whose neighbours overlap, alternating in sign."""
    lines = ["sort S", "timeline 0 40", "const A : S", "pred P(S)"]
    for k in range(size):
        sign = "" if k % 2 == 0 else "!"
        lines.append(f"fact {sign}P(A, {2 * k}, {2 * k + 3}) : 0.{(7 * k) % 9 + 1}")
    return "\n".join(lines) + "\n"


def non_decimal(rng, formulae):
    """The formulae with weights drawn from thirds and sevenths."""
    pool = [F(0), F(1, 3), F(2, 3), F(1, 7), F(2, 7), F(3, 7), F(1)]
    return frozenset(WeightedFormula(f, rng.choice(pool)) for f in formulae)


class TestConclusions:
    def test_negation_wins_under_strict_consistency(self, oresme, names):
        result = map_exhaustive(oresme, tps("tCon"))
        query = parse_query("PeasantFamily(*,*,*)", 1300, 1400)
        found = conclusions(result.entries[0].instantiation, query)
        assert [(str(l), str(w)) for l, w in found] == [
            ("!PeasantFamily(NO, 1300, 1400)", "4/5")
        ]
        assert found[0][1] == F("0.8")

    def test_positive_conclusion_under_lenient_validator(self, oresme, names):
        result = map_exhaustive(oresme, tps("tInc"))
        query = parse_query("PeasantFamily(*,*,*)", 1300, 1400)
        ((lit, weight),) = conclusions(result.entries[0].instantiation, query)
        assert lit.positive and weight == F("0.5")

    def test_absent_predicate_matches_nothing(self, oresme, names):
        query = parse_query("Studied(*,*,*,*)", 1300, 1400)
        assert conclusions((names["F1"],), query) == ()

    def test_polarity_restriction(self, oresme, names):
        result = map_exhaustive(oresme, tps("tCon"))
        positive_only = parse_query("+PeasantFamily(*,*,*)", 1300, 1400)
        assert conclusions(result.entries[0].instantiation, positive_only) == ()

    def test_malformed_patterns(self):
        for bad in ("", "lower(*,*,*)", "P(a b)", "P(*,)"):
            with pytest.raises(QueryError):
                parse_query(bad, 0, 1)

    def test_tmin_needs_timeline(self):
        with pytest.raises(QueryError, match="TMIN"):
            parse_query("P(TMIN, TMAX)")


# Two facts whose weights differ in the ninth decimal and clash under tCon:
# the heavier one alone is the single optimum, not a tie.
TIE_KB = (
    "sort S\n"
    "timeline 0 9\n"
    "const A : S\n"
    "pred P(S)\n"
    "fact P(A, 0, 5) : 0.5\n"
    "fact !P(A, 3, 8) : 0.500000001\n"
)


class TestExactTies:
    @pytest.mark.parametrize("theta", ["sum", "psum", "sum_alpha"])
    def test_ninth_decimal_breaks_the_tie(self, theta):
        M = parse(TIE_KB).tmln
        config = tps("tCon", theta=theta)
        (heavier,) = (wf for wf in M.facts if not wf.formula.positive)
        # sum_alpha reports a float strength; its states are ranked exactly.
        exact = theta != "sum_alpha"
        (batch,) = map_batch(M, [config])
        for result in (map_exhaustive(M, config), map_pruned(M, config), batch):
            assert result.instantiations == (frozenset({heavier}),)
            assert weight_str(result.strength) == "0.500000001"
            assert not exact or result.strength == F("0.500000001")
        states, best = brute_map(M, config)
        assert states == frozenset({frozenset({heavier})})
        assert weight_str(best) == "0.500000001"
        assert not exact or best == F("0.500000001")


class TestAgainstOracle:
    def test_worked_example_matches_brute_force(self, oresme):
        for d, s, t, _, _ in EXPECTED[:6]:
            config = tps(d, s, t)
            engine = map_exhaustive(oresme, config)
            states, best = brute_map(oresme, config)
            assert set(engine.instantiations) == set(states)
            assert float(engine.strength) == pytest.approx(best, abs=1e-9)
