"""Parametric scoring of knowledge-base states.

A semantics is assembled from three parts:

* a *validator* gating the state on one of the temporal consistency
  relations (1 when acceptable, 0 otherwise);
* a *selector* turning the state's weighted formulae into a weight tuple
  (identity, a threshold cut, or zeroing rules whose premises are not
  deducible from the rest of the state);
* an *aggregator* folding the tuple into a non-negative score (plain sum,
  power-mean style sum, or probabilistic sum).

The strength of a state is ``validator * aggregator(selector(state))``.

``audit_well_behaved`` stress-tests user-supplied components against the
eleven behavioural conditions that make the inference principles (neutrality
toward weightless additions, monotony under consistent growth, preservation
of consistent facts) provable for the assembled semantics.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .kernel import Literal, closure_literals
from .network import (
    WeightedFormula,
    Weight,
    ZERO,
    canonical_order,
    tf,
)
from .temporal import GroundState, Relation, RelationKind, Timeline, relation_holds, tau

Score = Union[Fraction, float]

SCORE_TOLERANCE = 1e-9

#: Largest integer ``sum_alpha`` exponent ranked by exact integer powers;
#: beyond it a scaled weight's power would run to thousands of digits.
MAX_EXACT_POWER = 64


class SemanticsError(Exception):
    """Bad component parameters or inputs."""


def scores_equal(a: Score, b: Score) -> bool:
    """Rational scores tie exactly; a float score (``sum_alpha``) ties within
    ``SCORE_TOLERANCE``."""
    if isinstance(a, (Fraction, int)) and isinstance(b, (Fraction, int)):
        return a == b
    return abs(float(a) - float(b)) <= SCORE_TOLERANCE


# --- validators --------------------------------------------------------------

#: Relation under which each validator accepts (returns 1).
ACCEPTING_RELATION = {
    Relation.PCON: RelationKind(Relation.PCON),
    Relation.TCON: RelationKind(Relation.TCON),
    Relation.PINC: RelationKind(Relation.PINC, negated=True),
    Relation.TINC: RelationKind(Relation.TINC, negated=True),
}


@dataclass(frozen=True)
class Validator:
    """Accepts or rejects a state by a temporal consistency relation.

    The consistency validators reward the relation holding; the
    inconsistency validators reward its absence.
    """

    relation: Relation

    @property
    def accepting_kind(self) -> RelationKind:
        return ACCEPTING_RELATION[self.relation]

    def __call__(self, instantiation: Iterable[WeightedFormula]) -> int:
        return 1 if relation_holds(self.accepting_kind, tf(instantiation)) else 0

    def __str__(self) -> str:
        return self.relation.value


def delta(relation: Relation | str, instantiation: Iterable[WeightedFormula]) -> int:
    if isinstance(relation, str):
        relation = Relation.from_token(relation)
    return Validator(relation)(instantiation)


# --- selectors ---------------------------------------------------------------

@dataclass(frozen=True)
class Selector:
    """Maps a state to its weight tuple, slot for slot.

    ``id`` keeps weights as they are; ``thresh`` drops each weight by
    ``alpha`` (clamped at 0); ``rule`` zeroes the slot of any ground rule
    with a premise that is not deducible from the other formulae of the
    state.  The tuple always has one slot per formula.
    """

    kind: str = "id"
    alpha: Weight = ZERO

    def __post_init__(self) -> None:
        if self.kind not in ("id", "thresh", "rule"):
            raise SemanticsError(f"unknown selector {self.kind!r}")
        if self.kind == "thresh" and not (ZERO <= self.alpha < 1):
            raise SemanticsError(f"selector threshold {self.alpha} outside [0, 1)")

    def __call__(self, items: Sequence[WeightedFormula]) -> tuple[Weight, ...]:
        state = WeightedState(tuple(items))
        return state.slots(self, state.full)

    def slot_ceiling(self, weight: Weight) -> Weight:
        """Largest slot value this selector can assign to the given weight."""
        if self.kind == "thresh":
            return max(weight - self.alpha, ZERO)
        return weight

    def __str__(self) -> str:
        if self.kind == "thresh":
            return f"thresh:{self.alpha}"
        return self.kind


class WeightedState(GroundState):
    """A ground state with its weights: every state is scored here.

    Subsets are bitmasks over ``members``; selector slots and strengths of
    any subset are computed on the interned closure of :class:`GroundState`.
    """

    def __init__(self, members: Sequence[WeightedFormula]):
        self.members = tuple(members)
        self.weights = tuple(wf.weight for wf in self.members)
        super().__init__([wf.formula for wf in self.members])

    def member_indices(self, mask: int) -> list[int]:
        return [i for i in range(self.n) if mask >> i & 1]

    def kept(self, selector: Selector, mask: int) -> int:
        """The members of the subset whose slot is at its selector ceiling.

        Every other member of the subset has slot 0: under ``rule``, a rule
        with a premise that is not deducible from the other members.
        """
        if selector.kind == "rule":
            for i in self.rule_indices:
                if mask >> i & 1 and self.prem_mask[i] & ~self.closure_bits(mask & ~(1 << i)):
                    mask &= ~(1 << i)
        return mask

    def slots(self, selector: Selector, mask: int) -> tuple[Weight, ...]:
        """Selector output for the subset, slot for slot in member order."""
        kept = self.kept(selector, mask)
        return tuple(
            selector.slot_ceiling(self.weights[i]) if kept >> i & 1 else ZERO
            for i in self.member_indices(mask)
        )

    def strength(self, tps: "ParametricSemantics", mask: int) -> Score:
        if not self.holds(tps.validator.accepting_kind, mask):
            return ZERO
        return tps.aggregator(self.slots(tps.selector, mask))


class Ranking:
    """Keys ranking the subsets of one state under one semantics.

    Every slot is 0 or its selector ceiling, so a key folds one term per
    member over all n members: the term of the ceiling for a member whose
    slot is at its ceiling, the term of 0 for every other member, in the
    subset or not.  Ceilings are scaled to integers W by D, the lcm of their
    denominators, and the terms are

    * ``sum``, and ``sum_alpha`` with an integer exponent a: Wᵃ, added;
    * ``psum``: D − W, multiplied, starting from −1, so the key is −∏(D − W);
    * ``sum_alpha`` with any other a: the float (W / D)ᵃ, added.

    A key is a strictly increasing function of the subset's strength, and a
    subset the validator rejects gets the key of the empty subset, ``empty``.
    Integer keys rank and tie exactly; float keys tie when their strengths
    are within ``SCORE_TOLERANCE``.  ``combine`` folds a term, or a fold of
    terms, into a key, so a key can be carried down a search member by member.
    """

    def __init__(self, state: WeightedState, tps: "ParametricSemantics"):
        self.state = state
        self.tps = tps
        aggregator = tps.aggregator
        ceilings = [tps.selector.slot_ceiling(w) for w in state.weights]
        scale = math.lcm(*(c.denominator for c in ceilings))
        scaled = [c.numerator * (scale // c.denominator) for c in ceilings]
        power = aggregator.exact_power
        self.exact = aggregator.kind == "psum" or power is not None
        if aggregator.kind == "psum":
            self.start, self.combine, self.identity = -1, operator.mul, 1
            self.terms = [scale - w for w in scaled]
            self.zero = scale
        elif self.exact:
            self.start, self.combine, self.identity = 0, operator.add, 0
            self.terms = [w**power for w in scaled]
            self.zero = 0
        else:
            self.start, self.combine, self.identity = 0.0, operator.add, 0.0
            self.terms = [(w / scale) ** aggregator.alpha for w in scaled]
            self.zero = 0.0
        self.empty = self.fold(0)

    def fold(self, kept: int) -> Score:
        """The key of a subset whose slots at their ceiling are ``kept``."""
        zero = self.zero
        return functools.reduce(
            self.combine,
            (t if kept >> i & 1 else zero for i, t in enumerate(self.terms)),
            self.start,
        )

    def key(self, mask: int) -> Score:
        state, tps = self.state, self.tps
        if not state.holds(tps.validator.accepting_kind, mask):
            return self.empty
        return self.fold(state.kept(tps.selector, mask))

    def floor(self, best: Score) -> Score:
        """The least key tying ``best``: every key at or above it ties or wins."""
        if self.exact:
            return best
        alpha = self.tps.aggregator.alpha
        score = best ** (1.0 / alpha) - SCORE_TOLERANCE
        if score <= 0:
            return 0.0
        # A positive strength must not tie with 0 when its power underflows.
        return max(score**alpha, math.ulp(0.0))


def select(sigma: Selector, instantiation: Iterable[WeightedFormula]) -> tuple[Weight, ...]:
    """Apply a selector to a state in canonical formula order."""
    items = instantiation if isinstance(instantiation, tuple) else canonical_order(instantiation)
    return sigma(items)


# --- aggregators ---------------------------------------------------------------

@dataclass(frozen=True)
class Aggregator:
    """Folds a weight tuple into a non-negative score.

    ``sum`` adds the weights; ``sum_alpha`` computes ``(sum w_i^a)^(1/a)``
    for ``a >= 1``; ``psum`` folds the probabilistic sum
    ``x + y - x*y``.  The empty tuple always scores 0.
    """

    kind: str = "sum"
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("sum", "sum_alpha", "psum"):
            raise SemanticsError(f"unknown aggregator {self.kind!r}")
        if self.kind == "sum_alpha" and not math.isfinite(self.alpha):
            raise SemanticsError(f"aggregator exponent {self.alpha} is not finite")
        if self.kind == "sum_alpha" and self.alpha < 1:
            raise SemanticsError(f"aggregator exponent {self.alpha} below 1")

    @property
    def exact_power(self) -> Optional[int]:
        """The exponent a when ``sum w_i^a`` ranks scores exactly in integers.

        1 for ``sum``; the exponent of ``sum_alpha`` when it is an integer up
        to ``MAX_EXACT_POWER``; ``None`` for ``psum`` and other exponents.
        """
        if self.kind == "sum":
            return 1
        if self.kind == "sum_alpha" and float(self.alpha).is_integer() and self.alpha <= MAX_EXACT_POWER:
            return int(self.alpha)
        return None

    def __call__(self, weights: Sequence[Weight]) -> Score:
        if not weights:
            return ZERO
        if self.kind == "sum":
            return sum(weights, ZERO)
        if self.kind == "sum_alpha":
            if self.alpha == 1:
                return sum(weights, ZERO)
            total = sum(float(w) ** self.alpha for w in weights)
            return total ** (1.0 / self.alpha)
        acc = weights[0]
        for w in weights[1:]:
            acc = acc + w - acc * w
        return acc

    def __str__(self) -> str:
        if self.kind == "sum_alpha":
            return f"sum_alpha:{format(self.alpha, 'g')}"
        return self.kind


def aggregate(theta: Aggregator, weights: Sequence[Weight]) -> Score:
    """``theta(weights)`` after checking that every weight lies in [0, 1].

    ``Aggregator.__call__`` trusts its input: engine weights were checked
    when their ``WeightedFormula`` was built.
    """
    for w in weights:
        if not ZERO <= w <= 1:
            raise SemanticsError(f"weight {w} outside [0, 1]")
    return theta(weights)


# --- assembled semantics -----------------------------------------------------

UNSHIPPED = "custom components carry no monotonicity certificate"


@dataclass(frozen=True)
class ParametricSemantics:
    """A validator, selector and aggregator scoring states multiplicatively."""

    validator: Validator
    selector: Selector
    aggregator: Aggregator

    @property
    def shipped(self) -> bool:
        """Whether all three components are the shipped families.

        States are scored and searched only under shipped components: a
        custom component carries no monotonicity certificate.
        """
        return (
            isinstance(self.validator, Validator)
            and isinstance(self.selector, Selector)
            and isinstance(self.aggregator, Aggregator)
        )

    def strength(self, instantiation: Iterable[WeightedFormula]) -> Score:
        if not self.shipped:
            raise SemanticsError(f"strength needs the shipped component families; {UNSHIPPED}")
        state = WeightedState(canonical_order(instantiation))
        return state.strength(self, state.full)

    def __str__(self) -> str:
        return f"<{self.validator},{self.selector},{self.aggregator}>"


def strength(tps: ParametricSemantics, instantiation: Iterable[WeightedFormula]) -> Score:
    return tps.strength(instantiation)


def shipped_combinations(
    thresh_alpha: Weight = Fraction(1, 4), sum_alpha: float = 2.0
) -> list[ParametricSemantics]:
    """All 36 combinations of shipped components, at representative parameters."""
    validators = [Validator(r) for r in Relation]
    selectors = [Selector("id"), Selector("thresh", thresh_alpha), Selector("rule")]
    aggregators = [Aggregator("sum"), Aggregator("sum_alpha", sum_alpha), Aggregator("psum")]
    return [
        ParametricSemantics(v, s, a)
        for v in validators
        for s in selectors
        for a in aggregators
    ]


# --- well-behavedness audit ----------------------------------------------------

@dataclass
class ConditionResult:
    """Outcome of one audited condition."""

    name: str
    trials: int = 0
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


@dataclass
class AuditReport:
    """Per-condition outcomes of a well-behavedness audit."""

    conditions: list[ConditionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list[str]:
        return [c.name for c in self.conditions if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.conditions:
            status = "pass" if c.passed else f"FAIL ({c.counterexample})"
            lines.append(f"{c.name}: {c.trials} trials, {status}")
        return "\n".join(lines)


@dataclass(frozen=True)
class AuditSample:
    """One audit input: a state plus a fresh, consistency-neutral extension.

    The extension literal uses a predicate foreign to the state, so it is
    novel under bound homogenization and cannot complete any rule premise or
    contradict any literal; conditions guarded by novelty and consistency
    become testable instead of vacuous.
    """

    items: tuple[WeightedFormula, ...]
    timeline: Timeline
    fresh: Literal
    fresh_weight: Weight


def _tau_novel(sample: AuditSample) -> bool:
    base = tau(tf(sample.items), sample.timeline)
    target = next(iter(tau([sample.fresh], sample.timeline)))
    return target not in closure_literals(base)


def _consistent_with(sample: AuditSample, kind: RelationKind) -> bool:
    extended = list(tf(sample.items)) + [sample.fresh]
    return relation_holds(kind, extended)


def audit_well_behaved(
    validator: Callable[[Sequence[WeightedFormula]], int],
    selector: Callable[[Sequence[WeightedFormula]], tuple],
    aggregator: Callable[[Sequence[Weight]], Score],
    samples: Iterable[AuditSample],
    con: RelationKind,
    weight_tuples: Iterable[Sequence[Weight]] = (),
) -> AuditReport:
    """Test the eleven behavioural conditions on every sample.

    Universally quantified conditions are sampled, not proven.  ``con`` is
    the consistency relation parameterizing the validator condition and the
    guarded selector conditions.  Aggregator conditions draw from
    ``weight_tuples`` (falling back to the samples' selected tuples).
    """
    names = [
        "delta-a",
        "theta-a", "theta-b", "theta-c", "theta-d", "theta-e",
        "sigma-a", "sigma-b", "sigma-c", "sigma-d", "sigma-e",
    ]
    results = {n: ConditionResult(n) for n in names}

    def record(name: str, ok: bool, detail: str) -> None:
        res = results[name]
        res.trials += 1
        if not ok and res.counterexample is None:
            res.counterexample = detail

    # Length-zero cases are single checks, not per-sample.
    record("theta-a", scores_equal(aggregator(()), ZERO), "aggregator(()) != 0")
    try:
        sigma_empty_ok = tuple(selector(())) == ()
    except Exception:
        # A selector that cannot even survive the empty state fails the audit.
        sigma_empty_ok = False
    record("sigma-a", sigma_empty_ok, "selector(()) != ()")

    tuples = list(weight_tuples)
    for ws in tuples:
        ws = tuple(ws)
        if ws:
            record(
                "theta-b",
                scores_equal(aggregator(ws[:1]), ws[0]),
                f"theta(({ws[0]},)) != {ws[0]}",
            )
        if len(ws) >= 2:
            shuffled = ws[1:] + ws[:1]
            record(
                "theta-c",
                scores_equal(aggregator(ws), aggregator(shuffled)),
                f"theta not symmetric on {ws}",
            )
        record(
            "theta-d",
            scores_equal(aggregator(ws), aggregator(ws + (ZERO,))),
            f"padding changed theta on {ws}",
        )
        bumped = ws + (Fraction(1, 2),)
        low = ws + (Fraction(1, 4),)
        record(
            "theta-e",
            float(aggregator(low)) <= float(aggregator(bumped)) + SCORE_TOLERANCE,
            f"theta not monotone on {ws}",
        )

    for sample in samples:
        items = sample.items
        fresh_zero = WeightedFormula(sample.fresh, ZERO)
        fresh_weighted = WeightedFormula(sample.fresh, sample.fresh_weight)

        if relation_holds(con, tf(items)):
            record(
                "delta-a",
                validator(items) == 1,
                f"validator rejected a {con}-consistent state {sorted(map(str, items))}",
            )

        base_tuple = tuple(selector(items))
        if len(items) >= 1:
            record(
                "sigma-b",
                len(base_tuple) >= 1,
                f"selector emptied a non-empty state {sorted(map(str, items))}",
            )

        if _tau_novel(sample):
            extended = tuple(selector(items + (fresh_zero,)))
            record(
                "sigma-c",
                extended == base_tuple + (ZERO,),
                f"zero-weight extension altered slots on {sorted(map(str, items))}",
            )
            if _consistent_with(sample, con):
                grown = tuple(selector(items + (fresh_weighted,)))
                record(
                    "sigma-d",
                    len(grown) == len(base_tuple) + 1 and grown[: len(base_tuple)] == base_tuple,
                    f"extension did not strictly extend slots on {sorted(map(str, items))}",
                )
                record(
                    "sigma-e",
                    float(aggregator(base_tuple))
                    <= float(aggregator(grown)) + SCORE_TOLERANCE,
                    f"consistent extension lowered the score on {sorted(map(str, items))}",
                )

    report = AuditReport([results[n] for n in names])
    return report
