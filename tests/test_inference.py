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
from tmln.kernel import Signature
from tmln.network import TMLN, WeightedFormula
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
from tmln.temporal import Relation, Timeline

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
        [map_pruned, lambda M, config: map_batch(M, [config])],
        ids=["map_pruned", "map_batch"],
    )
    def test_custom_component_rejected(self, oresme, search):
        bad = ParametricSemantics(
            Validator(Relation.TCON), Selector("id"), lambda ws: float(len(ws))
        )
        with pytest.raises(InferenceError, match="certificate"):
            search(oresme, bad)


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
    @pytest.mark.parametrize("theta", ["sum", "psum"])
    def test_ninth_decimal_breaks_the_tie(self, theta):
        from tmln.kbformat import parse

        M = parse(TIE_KB).tmln
        config = tps("tCon", theta=theta)
        (heavier,) = (wf for wf in M.facts if not wf.formula.positive)
        for result in (map_exhaustive(M, config), map_pruned(M, config)):
            assert result.instantiations == (frozenset({heavier}),)
            assert result.strength == F("0.500000001")
        states, best = brute_map(M, config)
        assert states == frozenset({frozenset({heavier})})
        assert best == F("0.500000001")


class TestAgainstOracle:
    def test_worked_example_matches_brute_force(self, oresme):
        for d, s, t, _, _ in EXPECTED[:6]:
            config = tps(d, s, t)
            engine = map_exhaustive(oresme, config)
            states, best = brute_map(oresme, config)
            assert set(engine.instantiations) == set(states)
            assert float(engine.strength) == pytest.approx(best, abs=1e-9)
