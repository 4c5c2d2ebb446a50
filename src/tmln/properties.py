"""Randomized property suites: relation laws, component audits, principles.

These run both under pytest and behind the ``check`` command.  Each suite
draws from a seeded generator, counts effective trials (samples where the
property's preconditions hold) and reports counterexamples, greedily
shrunk where cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .inference import MapResult, map_batch, map_exhaustive, map_pruned
from .kernel import closure_literals
from .network import TMLN, WeightedFormula, tf, weight_of
from .oracle import (
    brute_classical_optimum,
    brute_map,
    brute_weight,
)
from .randgen import (
    fresh_predicate_fact,
    random_audit_samples,
    random_formula_set,
    random_instantiation,
    random_tmln,
    random_weight,
    random_weight_tuples,
)
from .semantics import (
    Aggregator,
    ParametricSemantics,
    SCORE_TOLERANCE,
    Selector,
    Validator,
    audit_well_behaved,
    delta,
    scores_equal,
    shipped_combinations,
)
from .temporal import Relation, RelationKind, relation_holds


@dataclass
class PropertyOutcome:
    """Result of one randomized property suite."""

    name: str
    trials: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, detail: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(detail)

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL [{self.failures[0]}]"
        return f"{self.name}: {self.trials} trials, {status}"


def _rel(kind: str, formulae) -> bool:
    return relation_holds(RelationKind.from_token(kind), formulae)


def shrink_formulae(formulae: list, still_failing) -> list:
    """Greedily drop formulae while ``still_failing`` keeps returning True.

    One pass per element; the result is locally minimal (removing any single
    remaining formula makes the failure disappear).
    """
    current = list(formulae)
    changed = True
    while changed:
        changed = False
        for candidate in list(current):
            trimmed = [f for f in current if f is not candidate]
            try:
                if still_failing(trimmed):
                    current = trimmed
                    changed = True
            except Exception:
                continue
    return current


# The relation laws: suite name, failure message, and the implications it
# checks over the four relation values ("!" negates).
_LATTICE_SUITES = (
    ("relation-complementarity", "tCon != !pInc", ("tCon -> !pInc", "!pInc -> tCon")),
    (
        "relation-subsumption",
        "subsumption broken",
        ("pCon -> !tInc", "tInc -> !pCon", "!pCon -> pInc", "!pInc -> pCon"),
    ),
    (
        "relation-inclusion-lattice",
        "inclusion lattice broken",
        ("tCon -> pCon", "pCon -> !tInc", "tInc -> !pCon", "!pCon -> pInc"),
    ),
)
_LAWS = {law for _, _, laws in _LATTICE_SUITES for law in laws}


def _relation_values(phi) -> dict[str, bool]:
    return {k: _rel(k, phi) for k in ("pCon", "tCon", "pInc", "tInc")}


def _law_holds(law: str, values: dict[str, bool]) -> bool:
    premise, conclusion = (values[t.lstrip("!")] != t.startswith("!") for t in law.split(" -> "))
    return not premise or conclusion


def _lattice_violation(phi) -> bool:
    values = _relation_values(phi)
    return not all(_law_holds(law, values) for law in _LAWS)


def check_relation_lattice(rng: random.Random, trials: int) -> list[PropertyOutcome]:
    """Complementarity, subsumption and inclusion laws of the four relations."""
    suites = [(PropertyOutcome(name), message, laws) for name, message, laws in _LATTICE_SUITES]
    stable = PropertyOutcome("relation-closure-invariance")
    for _ in range(trials):
        phi = random_formula_set(rng)
        values = _relation_values(phi)
        for outcome, message, laws in suites:
            outcome.trials += 1
            if not all(_law_holds(law, values) for law in laws):
                minimized = sorted(map(str, shrink_formulae(phi, _lattice_violation)))
                outcome.fail(f"{message} on {minimized}")

        # Re-adding something already derived never changes any relation.
        stable.trials += 1
        derived = closure_literals(phi)
        if derived:
            extra = sorted(derived, key=str)[rng.randrange(len(derived))]
            extended = list(phi) + [extra]
            if any(_rel(k, extended) != v for k, v in values.items()):
                stable.fail(f"closure-noise changed a relation on {sorted(map(str, phi))}")
    return [outcome for outcome, _, _ in suites] + [stable]


def check_delta_ordering(rng: random.Random, trials: int) -> PropertyOutcome:
    """Pointwise validator ordering: tCon = pInc <= pCon <= tInc."""
    out = PropertyOutcome("validator-pointwise-ordering")
    for _ in range(trials):
        items = random_instantiation(rng)
        values = {r: delta(r, items) for r in Relation}
        out.trials += 1
        ok = (
            values[Relation.TCON] == values[Relation.PINC]
            and values[Relation.TCON] <= values[Relation.PCON]
            and values[Relation.PCON] <= values[Relation.TINC]
        )
        if not ok:
            out.fail(f"ordering broken on {sorted(map(str, items))}")
    return out


def check_component_audits(rng: random.Random, samples: int) -> list[PropertyOutcome]:
    """Well-behavedness of every shipped selector/aggregator pair and validator."""
    outcomes = []
    tuples = random_weight_tuples(rng, samples)
    selectors = [Selector("id"), Selector("thresh", Fraction(1, 4)), Selector("rule")]
    aggregators = [Aggregator("sum"), Aggregator("sum_alpha", 2.0), Aggregator("psum")]
    for sigma in selectors:
        for theta in aggregators:
            batch = random_audit_samples(rng, samples)
            con = RelationKind(Relation.TINC, negated=True)
            report = audit_well_behaved(
                Validator(Relation.TINC), sigma, theta, batch, con, tuples
            )
            name = f"audit-{sigma}-{theta}"
            outcome = PropertyOutcome(name, trials=sum(c.trials for c in report.conditions))
            for cond in report.conditions:
                if not cond.passed:
                    outcome.fail(f"{cond.name}: {cond.counterexample}")
            outcomes.append(outcome)
    for relation in Relation:
        validator = Validator(relation)
        batch = random_audit_samples(rng, samples)
        report = audit_well_behaved(
            validator,
            Selector("id"),
            Aggregator("sum"),
            batch,
            validator.accepting_kind,
            tuples[:1],
        )
        cond = next(c for c in report.conditions if c.name == "delta-a")
        outcome = PropertyOutcome(f"audit-delta-{relation.value}", trials=cond.trials)
        if not cond.passed:
            outcome.fail(cond.counterexample or "delta-a")
        outcomes.append(outcome)
    return outcomes


def _precondition_holds(
    result: MapResult, extension: WeightedFormula, con: RelationKind
) -> bool:
    """Every optimal state stays consistent when the new formula joins it."""
    return all(
        relation_holds(con, list(tf(I)) + [extension.formula])
        for I in result.instantiations
    )


def check_principles(
    rng: random.Random,
    kb_count: int,
    combos: Optional[Sequence[ParametricSemantics]] = None,
    max_mi: int = 10,
    kbs: Optional[Sequence[TMLN]] = None,
) -> list[PropertyOutcome]:
    """The three inference principles across all shipped combinations."""
    combos = list(combos or shipped_combinations())
    p1 = PropertyOutcome("principle-temporal-neutrality")
    p2 = PropertyOutcome("principle-consistency-monotony")
    p3 = PropertyOutcome("principle-invariant-consistent-facts")
    for k in range(kb_count if kbs is None else len(kbs)):
        M = random_tmln(rng, max_mi=max_mi) if kbs is None else kbs[k]
        base = map_batch(M, combos)
        zero_kb, _ = fresh_predicate_fact(M, rng, Fraction(0))
        zero_results = map_batch(zero_kb, combos)
        grown_kb, grown_wf = fresh_predicate_fact(M, rng, random_weight(rng, nonzero=True))
        grown_results = map_batch(grown_kb, combos)
        for tps, b, z, g in zip(combos, base, zero_results, grown_results):
            p1.trials += 1
            if not scores_equal(b.strength, z.strength):
                p1.fail(
                    f"{tps}: strength {b.strength} changed to {z.strength} "
                    f"after a weightless fresh fact"
                )
            con = tps.validator.accepting_kind
            if not _precondition_holds(b, grown_wf, con):
                continue
            p2.trials += 1
            if float(g.strength) + SCORE_TOLERANCE < float(b.strength):
                p2.fail(
                    f"{tps}: strength dropped {b.strength} -> {g.strength} "
                    f"after a consistent fresh fact"
                )
            p3.trials += 1
            new_states = set(g.instantiations)
            for I in b.instantiations:
                if I | {grown_wf} not in new_states:
                    p3.fail(f"{tps}: an optimal state did not absorb the new fact")
                    break
    return [p1, p2, p3]


def check_strength_chain(
    rng: random.Random,
    kb_count: int,
    max_mi: int = 10,
    kbs: Optional[Sequence[TMLN]] = None,
) -> PropertyOutcome:
    """Optimal strengths ordered by validator: tCon = pInc <= pCon <= tInc."""
    out = PropertyOutcome("optimal-strength-chain")
    pairs = [
        (Selector("id"), Aggregator("sum")),
        (Selector("id"), Aggregator("sum_alpha", 2.0)),
        (Selector("thresh", Fraction(1, 4)), Aggregator("psum")),
        (Selector("rule"), Aggregator("sum")),
        (Selector("rule"), Aggregator("sum_alpha", 2.0)),
        (Selector("thresh", Fraction(1, 4)), Aggregator("sum")),
        (Selector("id"), Aggregator("psum")),
        (Selector("rule"), Aggregator("psum")),
        (Selector("thresh", Fraction(1, 4)), Aggregator("sum_alpha", 2.0)),
    ]
    for k in range(kb_count if kbs is None else len(kbs)):
        M = random_tmln(rng, max_mi=max_mi) if kbs is None else kbs[k]
        for sigma, theta in pairs:
            combos = [
                ParametricSemantics(Validator(r), sigma, theta)
                for r in (Relation.TCON, Relation.PINC, Relation.PCON, Relation.TINC)
            ]
            tcon, pinc, pcon, tinc = (float(r.strength) for r in map_batch(M, combos))
            out.trials += 1
            ok = (
                abs(tcon - pinc) <= SCORE_TOLERANCE
                and tcon <= pcon + SCORE_TOLERANCE
                and pcon <= tinc + SCORE_TOLERANCE
            )
            if not ok:
                out.fail(
                    f"chain broken for {sigma}/{theta}: "
                    f"tCon={tcon} pInc={pinc} pCon={pcon} tInc={tinc}"
                )
    return out


def check_oracle_equivalence(
    rng: random.Random, kb_count: int, max_mi: int = 12
) -> list[PropertyOutcome]:
    """Engine versus brute force: inference results and support weights."""
    maps = PropertyOutcome("oracle-map-equivalence")
    weights = PropertyOutcome("oracle-weight-equivalence")
    combos = shipped_combinations()
    for k in range(kb_count):
        M = random_tmln(rng, max_mi=max_mi)
        tps = combos[k % len(combos)]
        exhaustive = map_exhaustive(M, tps)
        pruned = map_pruned(M, tps)
        oracle_states, oracle_best = brute_map(M, tps)
        maps.trials += 1
        engine_states = set(exhaustive.instantiations)
        if engine_states != set(pruned.instantiations):
            maps.fail(f"pruned differs from exhaustive under {tps}")
        elif engine_states != set(oracle_states):
            maps.fail(f"engine differs from brute force under {tps}")
        elif not scores_equal(exhaustive.strength, oracle_best):
            maps.fail(
                f"strength mismatch {exhaustive.strength} vs {oracle_best} under {tps}"
            )

        members = sorted(M.facts | M.rules, key=str)
        if len(members) <= 10:
            derivable = sorted(closure_literals(tf(M)), key=str)
            if derivable:
                target = derivable[rng.randrange(len(derivable))]
                weights.trials += 1
                engine_w = weight_of(target, M)
                oracle_w = brute_weight(target, M)
                if engine_w != oracle_w:
                    weights.fail(
                        f"weight of {target}: engine {engine_w} vs oracle {oracle_w}"
                    )
    return [maps, weights]


def check_classical_equivalence(
    rng: random.Random, kb_count: int, max_mi: int = 12
) -> PropertyOutcome:
    """With certain rules, the strict-clash semantics matches the classical optimum.

    The engine runs the strict-inconsistency validator with identity
    selection and plain summing; the oracle independently maximizes the
    summed weight over states whose closure never contains a literal
    together with its exact negation.
    """
    out = PropertyOutcome("certain-rule-classical-equivalence")
    tps = ParametricSemantics(Validator(Relation.TINC), Selector("id"), Aggregator("sum"))
    for _ in range(kb_count):
        M = random_tmln(rng, max_mi=max_mi, certain_rules=True)
        result = map_exhaustive(M, tps)
        states, best = brute_classical_optimum(M)
        out.trials += 1
        if not scores_equal(result.strength, best):
            out.fail(f"strength {result.strength} vs classical {best}")
        elif set(result.instantiations) != set(states):
            out.fail("optimal states differ from the classical oracle")
    return out


def run_all(seed: int, trials: int = 1000) -> list[PropertyOutcome]:
    """Every suite at scaled trial counts; deterministic for a fixed seed."""
    rng = random.Random(seed)
    kb_trials = max(1, trials // 20)
    outcomes: list[PropertyOutcome] = []
    outcomes.extend(check_relation_lattice(rng, trials))
    outcomes.append(check_delta_ordering(rng, max(1, trials // 2)))
    outcomes.extend(check_component_audits(rng, max(1, trials // 5)))
    outcomes.extend(check_principles(rng, kb_trials))
    outcomes.append(check_strength_chain(rng, kb_trials))
    outcomes.extend(check_oracle_equivalence(rng, kb_trials))
    outcomes.append(check_classical_equivalence(rng, kb_trials))
    return outcomes
