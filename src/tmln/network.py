"""Weighted temporal knowledge bases, the support-weight function and grounding.

A knowledge base pairs every formula with a certainty weight in ``[0, 1]``:
ground literals as facts, implications with variables as rules.  Grounding
produces the *maximal instantiation*: the facts plus every rule instance
whose premises are all derivable, weighted by the weakest link used to build
it.  Any subset of the maximal instantiation is a *state* that the semantics
layer can score.

Support weights are one fixpoint over the (max, min) semiring: a literal's
weight is the max over its derivations of the min weight along each.  Both
grounding and every support-weight query are answered from that fixpoint.

Weights are exact fractions constructed from decimal strings, so grounding
and support weights never pick up binary floating point drift.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .kernel import (
    Constant,
    Formula,
    Literal,
    Rule,
    Signature,
    TimePoint,
    closure_literals,
    match_premises,
    substitute,
    validate_signature,
)
from .temporal import Timeline

Weight = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class NetworkError(Exception):
    """Invalid knowledge-base content."""


class NotDerivableError(NetworkError):
    """The target of a support-weight query is not derivable."""


def as_weight(value: Union[str, int, Fraction]) -> Weight:
    """Parse a certainty weight; decimal strings stay exact."""
    w = Fraction(value)
    if not ZERO <= w <= ONE:
        raise NetworkError(f"weight {value!r} outside [0, 1]")
    return w


def weight_str(w: Union[Fraction, float]) -> str:
    """Render a weight or score as a decimal string without float drift."""
    if isinstance(w, float):
        return format(w, ".12g")
    if w.denominator == 1:
        return str(w.numerator)
    # Weights come from decimal strings, so the denominator is 2^a * 5^b.
    den = w.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return format(float(w), ".12g")
    digits = max(twos, fives)
    scaled = w.numerator * 10**digits // w.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else sign + whole


@dataclass(frozen=True)
class WeightedFormula:
    """A formula paired with its certainty."""

    formula: Formula
    weight: Weight

    def __post_init__(self) -> None:
        if not ZERO <= self.weight <= ONE:
            raise NetworkError(f"weight {self.weight} outside [0, 1]")

    def __str__(self) -> str:
        return f"({self.formula}, {weight_str(self.weight)})"


Instantiation = frozenset[WeightedFormula]


def _term_key(t):
    if isinstance(t, TimePoint):
        return (0, t.value, "")
    if isinstance(t, Constant):
        return (1, 0, t.name)
    return (2, 0, t.name)


def _literal_key(lit: Literal):
    return (
        lit.predicate,
        tuple(_term_key(a) for a in lit.args),
        _term_key(lit.lower),
        _term_key(lit.upper),
        0 if lit.positive else 1,
    )


def formula_key(f: Formula):
    """Total order over formulae: facts first, then rules, each structurally."""
    if isinstance(f, Literal):
        return (0, _literal_key(f))
    return (
        1,
        (
            f.label or "",
            tuple(_literal_key(p) for p in f.premises),
            _literal_key(f.conclusion),
        ),
    )


def canonical_order(items: Iterable[WeightedFormula]) -> tuple[WeightedFormula, ...]:
    """Deterministic serialization order of weighted formulae."""
    return tuple(sorted(items, key=lambda wf: (formula_key(wf.formula), wf.weight)))


@dataclass(frozen=True)
class TMLN:
    """A temporal knowledge base: weighted ground facts and weighted rules."""

    signature: Signature
    timeline: Timeline
    facts: frozenset[WeightedFormula] = frozenset()
    rules: frozenset[WeightedFormula] = frozenset()

    def validate(self) -> list[str]:
        """Structural report: empty iff every invariant holds."""
        report = validate_signature(self.signature)
        seen: dict[Formula, Weight] = {}
        for wf in self.facts:
            f = wf.formula
            if not isinstance(f, Literal):
                report.append(f"fact {f} is not a literal")
                continue
            if not f.is_ground:
                report.append(f"fact {f} is not ground")
            report.extend(self._check_literal(f))
            if f in seen and seen[f] != wf.weight:
                report.append(f"fact {f} declared with conflicting weights")
            seen[f] = wf.weight
        for wf in self.rules:
            r = wf.formula
            if not isinstance(r, Rule):
                report.append(f"rule entry {r} is not a rule")
                continue
            if not r.variables():
                report.append(f"rule {r} has no variables")
            premise_vars = {v.name for p in r.premises for v in p.variables()}
            loose = {v.name for v in r.conclusion.variables()} - premise_vars
            if loose:
                report.append(
                    f"rule {r}: conclusion variables {sorted(loose)} do not occur in any premise"
                )
            for lit in (*r.premises, r.conclusion):
                report.extend(self._check_literal(lit))
        return report

    def _check_literal(self, lit: Literal) -> list[str]:
        report = []
        sig = self.signature
        if lit.predicate not in sig.predicates:
            return [f"unknown predicate {lit.predicate!r}"]
        expected = sig.predicates[lit.predicate]
        if len(lit.args) != len(expected):
            report.append(
                f"{lit.predicate!r} takes {len(expected) + 2} arguments, got {len(lit.args) + 2}"
            )
            return report
        for term, sort in zip(lit.args, expected):
            if isinstance(term, TimePoint):
                report.append(f"time point {term} in non-temporal position of {lit}")
            elif term.sort != sort:
                report.append(f"{term} has sort {term.sort!r}, expected {sort!r} in {lit}")
            if isinstance(term, Constant) and term.name not in sig.constants:
                report.append(f"unknown constant {term.name!r}")
        for bound in (lit.lower, lit.upper):
            if isinstance(bound, TimePoint) and bound.value not in self.timeline:
                report.append(f"time point {bound} of {lit} outside the timeline")
        if isinstance(lit.lower, TimePoint) and isinstance(lit.upper, TimePoint):
            if lit.lower.value > lit.upper.value:
                report.append(f"inverted bounds in {lit}")
        return report


def tf(items: Union[TMLN, Iterable[WeightedFormula]]) -> frozenset[Formula]:
    """Project away the weights, merging duplicate formulae."""
    return frozenset(wf.formula for wf in _members(items))


def _members(items: Union[TMLN, Iterable[WeightedFormula]]) -> tuple[WeightedFormula, ...]:
    if isinstance(items, TMLN):
        return tuple(items.facts | items.rules)
    return tuple(items)


def _fixpoint(
    items: Union[TMLN, Iterable[WeightedFormula]]
) -> tuple[dict[Literal, Weight], list[tuple[Rule, Weight]]]:
    """Support weights of every derivable literal, and every rule instance.

    The closure of the knowledge base is computed once and each rule's ground
    instances are enumerated once against it; bindings that leave a
    conclusion variable unbound contribute nothing, as in ``derive_closure``.
    Literals are then settled in decreasing weight order (Knuth's
    generalisation of Dijkstra's algorithm): an instance fires once all its
    premises are settled, and the premise settled last is its weakest, so the
    instance's weight is the min of that premise's weight and the rule's.
    A fact stated at several weights starts from the largest.
    """
    members = _members(items)
    formulae = tf(members)
    # Rules in canonical order, so the closure's rounds do not depend on hashing.
    rules = sorted((f for f in formulae if isinstance(f, Rule)), key=formula_key)
    universe = closure_literals([f for f in formulae if isinstance(f, Literal)] + rules)
    weights: dict[Literal, Weight] = {}
    instances: list[tuple[Rule, Weight]] = []
    waiting: list[int] = []  # per instance, its premises not yet settled
    uses: dict[Literal, list[int]] = {}  # premise -> the instances using it
    for wf in members:
        f = wf.formula
        if isinstance(f, Literal):
            if f not in weights or weights[f] < wf.weight:
                weights[f] = wf.weight
            continue
        for binding in match_premises(f.premises, universe):
            if not f.conclusion.variables() <= binding.keys():
                continue
            rule = substitute(f, binding)
            premises = set(rule.premises)
            for p in premises:
                uses.setdefault(p, []).append(len(instances))
            waiting.append(len(premises))
            instances.append((rule, wf.weight))

    tiebreak = itertools.count()
    heap = [(-w, next(tiebreak), lit) for lit, w in weights.items()]
    heapq.heapify(heap)
    settled: set[Literal] = set()
    fired: list[tuple[Rule, Weight]] = []
    while heap:
        _, _, lit = heapq.heappop(heap)
        if lit in settled:
            continue
        settled.add(lit)
        w = weights[lit]
        for i in uses.get(lit, ()):
            waiting[i] -= 1
            if waiting[i]:
                continue
            rule, rule_weight = instances[i]
            value = min(rule_weight, w)
            fired.append((rule, value))
            head = rule.conclusion
            if head not in weights or weights[head] < value:
                weights[head] = value
                heapq.heappush(heap, (-value, next(tiebreak), head))
    return weights, fired


def support_weights(items: Union[TMLN, Iterable[WeightedFormula]]) -> dict[Literal, Weight]:
    """Every derivable literal with the maximal weight at which it is deducible.

    That weight is the max over derivations of the min weight of the formulae
    each derivation uses, equivalently the max over the inclusion-minimal
    entailing subsets of the min weight inside each subset.
    """
    return _fixpoint(items)[0]


def weight_of(target: Literal, items: Union[TMLN, Iterable[WeightedFormula]]) -> Weight:
    """Maximal weight at which ``target`` is deducible (see :func:`support_weights`).

    Raises when the target is not derivable.
    """
    try:
        return support_weights(items)[target]
    except KeyError:
        raise NotDerivableError(f"{target} is not derivable") from None


def ground(M: TMLN) -> Instantiation:
    """The maximal instantiation: facts plus every derivable rule instance.

    A rule instance qualifies when each instantiated premise is in the
    derivability closure of the knowledge base; its weight is the minimum of
    the rule's weight and the support weights of its premises.  Two bindings
    yielding the same ground rule are merged, keeping the larger weight.
    """
    instances: dict[Rule, Weight] = {}
    for rule, w in _fixpoint(M)[1]:
        if rule not in instances or instances[rule] < w:
            instances[rule] = w
    members = set(M.facts) | {WeightedFormula(r, w) for r, w in instances.items()}
    return frozenset(members)
