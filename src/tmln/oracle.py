"""Brute-force reference implementations used as ground truth in tests.

Everything here is deliberately naive and separate from the engine's code
paths: closures restart their scan from scratch with no indexing, a rule's
bindings come from a unification walk over the current literals (a ground
rule fires when its premises are all present), support weights enumerate
all subsets, inference scores every subset with relations evaluated on
materialized point sets.  The only shared code is the domain types.  Size
bounds keep the exponential blowups honest.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .kernel import (
    Formula,
    Literal,
    Rule,
    TimePoint,
    Variable,
    substitute_literal,
)
from .network import (
    Instantiation,
    NotDerivableError,
    TMLN,
    WeightedFormula,
    Weight,
    canonical_order,
    ground,
)
from .semantics import ParametricSemantics, Score


class OracleBoundError(Exception):
    """Input too large for a brute-force pass."""


@dataclass(frozen=True)
class OracleReport:
    """One engine-versus-oracle comparison."""

    operation: str
    inputs_digest: str
    oracle_output: str
    engine_output: str
    match: bool


def digest(items: Iterable[object]) -> str:
    text = "\n".join(sorted(str(i) for i in items))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --- closure -------------------------------------------------------------------

def _unify_term(pattern, value, env: dict) -> bool:
    if isinstance(pattern, Variable):
        if pattern in env:
            return env[pattern] == value
        if value.sort != pattern.sort:
            return False
        env[pattern] = value
        return True
    return pattern == value


def _firings(rule: Rule, literals: set[Literal]) -> list[dict]:
    """Bindings making every premise a member, by scanning all literals."""
    if rule.is_ground:
        return [{}] if all(p in literals for p in rule.premises) else []
    results: list[dict] = []

    def walk(i: int, env: dict) -> None:
        if i == len(rule.premises):
            results.append(env)
            return
        pattern = rule.premises[i]
        for lit in literals:
            if (
                lit.positive != pattern.positive
                or lit.predicate != pattern.predicate
                or len(lit.args) != len(pattern.args)
            ):
                continue
            trial = dict(env)
            pieces = list(zip(pattern.args, lit.args)) + [
                (pattern.lower, lit.lower),
                (pattern.upper, lit.upper),
            ]
            if all(_unify_term(p, v, trial) for p, v in pieces):
                walk(i + 1, trial)

    walk(0, {})
    return results


def brute_closure(formulae: Iterable[Formula], bound: int = 12) -> frozenset[Literal]:
    """Naive fixpoint of rule firing; restarts the full scan on any change."""
    formulae = list(formulae)
    if len(formulae) > bound:
        raise OracleBoundError(f"{len(formulae)} formulae exceed the oracle bound {bound}")
    literals = {f for f in formulae if isinstance(f, Literal)}
    rules = [f for f in formulae if isinstance(f, Rule)]
    while True:
        added = False
        for rule in rules:
            for binding in _firings(rule, literals):
                if not rule.conclusion.variables() <= set(binding):
                    continue
                head = substitute_literal(rule.conclusion, binding)
                if head not in literals:
                    literals.add(head)
                    added = True
        if not added:
            return frozenset(literals)


def brute_entails(formulae: Iterable[Formula], target: Literal, bound: int = 12) -> bool:
    return target in brute_closure(formulae, bound)


# --- support weight --------------------------------------------------------------

def minimal_supports(
    target: Literal, items: Union[TMLN, Iterable[WeightedFormula]], bound: int = 10
) -> list[frozenset[WeightedFormula]]:
    """Inclusion-minimal subsets of the items whose formulae entail ``target``,
    from every entailing subset."""
    if isinstance(items, TMLN):
        members: list[WeightedFormula] = sorted(
            items.facts | items.rules, key=str
        )
    else:
        members = sorted(items, key=str)
    if len(members) > bound:
        raise OracleBoundError(f"{len(members)} formulae exceed the oracle bound {bound}")
    entailing: list[frozenset[WeightedFormula]] = []
    for r in range(1, len(members) + 1):
        for combo in itertools.combinations(members, r):
            if brute_entails([wf.formula for wf in combo], target, bound):
                entailing.append(frozenset(combo))
    return [s for s in entailing if not any(o < s for o in entailing)]


def brute_weight(
    target: Literal, items: Union[TMLN, Iterable[WeightedFormula]], bound: int = 10
) -> Weight:
    """All-subsets support weight: max over minimal entailing subsets of min weight."""
    minimal = minimal_supports(target, items, bound)
    if not minimal:
        raise NotDerivableError(f"{target} is not derivable")
    return max(min(wf.weight for wf in s) for s in minimal)


# --- inference -------------------------------------------------------------------

def _points(lit: Literal) -> set[int]:
    assert isinstance(lit.lower, TimePoint) and isinstance(lit.upper, TimePoint)
    return set(range(lit.lower.value, lit.upper.value + 1))


def _relation_truth(literals: frozenset[Literal]) -> dict[str, bool]:
    pairs = []
    for a in literals:
        for b in literals:
            if a.positive and not b.positive and a.predicate == b.predicate and a.args == b.args:
                pairs.append((_points(a), _points(b)))
    return {
        "pCon": all(p - q and q - p for p, q in pairs),
        "tCon": all(not (p & q) for p, q in pairs),
        "pInc": any(p & q for p, q in pairs),
        "tInc": any(p == q for p, q in pairs),
    }


def brute_delta(relation: str, members: Sequence[WeightedFormula]) -> int:
    """Validator value from relations evaluated on materialized point sets."""
    literals = brute_closure([wf.formula for wf in members], bound=len(members) + 1)
    truth = _relation_truth(literals)
    if relation in ("pCon", "tCon"):
        return 1 if truth[relation] else 0
    return 0 if truth[relation] else 1


def _selected(selector, members: Sequence[WeightedFormula]) -> list[Weight]:
    if selector.kind == "id":
        return [wf.weight for wf in members]
    if selector.kind == "thresh":
        return [max(wf.weight - selector.alpha, Fraction(0)) for wf in members]
    slots = []
    for i, wf in enumerate(members):
        f = wf.formula
        if isinstance(f, Rule):
            others = [m.formula for j, m in enumerate(members) if j != i]
            known = brute_closure(others, bound=len(others) + 1)
            slots.append(wf.weight if all(p in known for p in f.premises) else Fraction(0))
        else:
            slots.append(wf.weight)
    return slots


def _aggregated(aggregator, weights: Sequence[Weight]) -> Score:
    """Exact rational arithmetic, except floats for ``sum_alpha``."""
    if aggregator.kind == "sum_alpha":
        values = [float(w) for w in weights]
        return sum(v ** aggregator.alpha for v in values) ** (1.0 / aggregator.alpha)
    acc = Fraction(0)
    for w in weights:
        acc = acc + w if aggregator.kind == "sum" else acc + w - acc * w
    return acc


def brute_strength(tps: ParametricSemantics, members: Sequence[WeightedFormula]) -> Score:
    if brute_delta(tps.validator.relation.value, members) == 0:
        return 0.0 if tps.aggregator.kind == "sum_alpha" else Fraction(0)
    return _aggregated(tps.aggregator, _selected(tps.selector, members))


def _rank(tps: ParametricSemantics, members: Sequence[WeightedFormula]) -> Score:
    """What ``brute_map`` maximizes: the strength, except under ``sum_alpha``
    with an exact integer exponent a, where it is the exact ``sum w_i^a``, an
    increasing function of the strength."""
    power = tps.aggregator.exact_power
    if tps.aggregator.kind != "sum_alpha" or power is None:
        return brute_strength(tps, members)
    if brute_delta(tps.validator.relation.value, members) == 0:
        return Fraction(0)
    return sum((w**power for w in _selected(tps.selector, members)), Fraction(0))


def _optimal(scored: list[tuple[Score, tuple[WeightedFormula, ...]]], tolerance: float):
    best = max(s for s, _ in scored)
    if isinstance(best, Fraction):
        argmax = [frozenset(c) for s, c in scored if s == best]
    else:
        argmax = [frozenset(c) for s, c in scored if s >= best - tolerance]
    maximal = frozenset(a for a in argmax if not any(a < b for b in argmax))
    return maximal, best


def brute_map(
    M: Union[TMLN, Instantiation],
    tps: ParametricSemantics,
    bound: int = 14,
    tolerance: float = 1e-9,
) -> tuple[frozenset[Instantiation], Score]:
    """Literal transcription of the inference definition, with no pruning.

    Scores are exact fractions, compared exactly, except under ``sum_alpha``:
    with an integer exponent a the states are ranked by ``sum w_i^a`` in exact
    fractions; with any other a float strengths tie within ``tolerance``.
    """
    members = list(canonical_order(ground(M) if isinstance(M, TMLN) else M))
    if len(members) > bound:
        raise OracleBoundError(f"{len(members)} formulae exceed the oracle bound {bound}")
    ranked = []
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            ranked.append((_rank(tps, combo), combo))
    maximal, top = _optimal(ranked, tolerance)
    best = next(brute_strength(tps, c) for rank, c in ranked if rank == top)
    return maximal, best


def brute_classical_optimum(
    M: Union[TMLN, Instantiation], bound: int = 14
) -> tuple[frozenset[Instantiation], Fraction]:
    """Best classically consistent states: no literal derived with its negation.

    Consistency here is exact complementary-atom clash (same predicate,
    arguments and bounds); the score is the plain sum of member weights.
    """
    members = list(canonical_order(ground(M) if isinstance(M, TMLN) else M))
    if len(members) > bound:
        raise OracleBoundError(f"{len(members)} formulae exceed the oracle bound {bound}")
    scored = []
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            literals = brute_closure([wf.formula for wf in combo], bound=len(combo) + 1)
            consistent = not any(l.negated() in literals for l in literals)
            score = sum((wf.weight for wf in combo), Fraction(0)) if consistent else Fraction(0)
            scored.append((score, combo))
    return _optimal(scored, 0.0)
