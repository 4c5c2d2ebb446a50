"""Core syntax and derivability for temporal knowledge bases.

A knowledge base talks about *temporal literals*: signed atoms whose last two
arguments are the bounds of the validity interval, e.g.
``Studied(NO, CoN, 1340, 1354)`` or ``!PeasantFamily(NO, 1300, 1400)``.
Rules are flat implications ``p1 & ... & pk => c`` over such literals, with
lowercase variables universally quantified.

Derivability is forward chaining over this restricted fragment, run by one
engine, :func:`derive_closure`: it settles literals in decreasing weight
order and matches rules semi-naively against a persistent index, which also
yields every literal's support weight and every fired rule instance.
Negative literals are first-class atoms -- ``P`` and ``!P`` in the same
closure do *not* explode into everything; conflicts between them are the
business of the temporal consistency relations, not of derivability.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Union

TEMPORAL_SORT = "Time"


class KernelError(Exception):
    """Base class for kernel-level errors."""


class SortError(KernelError):
    """A term was used at a position of an incompatible sort."""


class BindingError(KernelError):
    """A substitution does not cover every variable of a rule."""


class GroundnessError(KernelError):
    """An operation required ground input but got variables."""


@dataclass(frozen=True)
class Constant:
    """A named individual of a declared (non-temporal) sort."""

    name: str
    sort: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Variable:
    """A sorted variable; lowercase by convention in the concrete syntax."""

    name: str
    sort: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TimePoint:
    """A concrete point on the discrete timeline."""

    value: int

    @property
    def sort(self) -> str:
        return TEMPORAL_SORT

    def __str__(self) -> str:
        return str(self.value)


Term = Union[Constant, Variable, TimePoint]


def is_ground_term(term: Term) -> bool:
    return not isinstance(term, Variable)


@dataclass(frozen=True)
class Signature:
    """Declared sorts, constants and predicates of a knowledge base.

    ``sorts`` holds the non-temporal sorts plus the distinguished temporal
    sort.  ``predicates`` maps each predicate name to the sorts of its
    non-temporal arguments only; the two trailing temporal arguments are
    implicit and mandatory, so the effective arity is ``len(args) + 2``.
    """

    sorts: frozenset[str] = frozenset({TEMPORAL_SORT})
    constants: Mapping[str, str] = field(default_factory=dict)
    predicates: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def effective_arity(self, predicate: str) -> int:
        return len(self.predicates[predicate]) + 2


def validate_signature(sig: Signature) -> list[str]:
    """Check every signature invariant; return one message per violation.

    An empty report means the signature is well formed.
    """
    report: list[str] = []
    if TEMPORAL_SORT not in sig.sorts:
        report.append(f"missing temporal sort {TEMPORAL_SORT!r}")
    for name, sort in sig.constants.items():
        if sort == TEMPORAL_SORT:
            report.append(f"constant {name!r} declared with the temporal sort")
        elif sort not in sig.sorts:
            report.append(f"constant {name!r} has unknown sort {sort!r}")
    for name, args in sig.predicates.items():
        if len(args) == 0:
            report.append(
                f"predicate {name!r} has no non-temporal arguments (arity < 3)"
            )
        for pos, sort in enumerate(args):
            if sort == TEMPORAL_SORT:
                report.append(
                    f"predicate {name!r} uses the temporal sort at position {pos}"
                )
            elif sort not in sig.sorts:
                report.append(
                    f"predicate {name!r} has unknown sort {sort!r} at position {pos}"
                )
    return report


@dataclass(frozen=True)
class Literal:
    """A signed temporal atom: polarity, predicate, arguments and bounds."""

    positive: bool
    predicate: str
    args: tuple[Term, ...]
    lower: Term
    upper: Term

    @property
    def is_ground(self) -> bool:
        return all(is_ground_term(t) for t in self.args) and (
            is_ground_term(self.lower) and is_ground_term(self.upper)
        )

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.predicate, self.args, self.lower, self.upper)

    def variables(self) -> frozenset[Variable]:
        out = {t for t in self.args if isinstance(t, Variable)}
        out |= {t for t in (self.lower, self.upper) if isinstance(t, Variable)}
        return frozenset(out)

    def with_bounds(self, lower: Term, upper: Term) -> "Literal":
        return Literal(self.positive, self.predicate, self.args, lower, upper)

    def __str__(self) -> str:
        sign = "" if self.positive else "!"
        parts = [str(t) for t in self.args] + [str(self.lower), str(self.upper)]
        return f"{sign}{self.predicate}({', '.join(parts)})"


@dataclass(frozen=True)
class Rule:
    """A flat implication over literals; ground iff it has no variables."""

    premises: tuple[Literal, ...]
    conclusion: Literal
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.premises:
            raise KernelError("a rule needs at least one premise")

    @property
    def is_ground(self) -> bool:
        return not self.variables()

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for lit in self.premises:
            out |= lit.variables()
        out |= self.conclusion.variables()
        return frozenset(out)

    def __str__(self) -> str:
        body = " & ".join(str(p) for p in self.premises)
        head = str(self.conclusion)
        label = f"{self.label}: " if self.label else ""
        return f"{label}{body} => {head}"


Formula = Union[Literal, Rule]

Binding = Mapping[Variable, Term]


def _apply(term: Term, binding: Binding) -> Term:
    if isinstance(term, Variable):
        try:
            value = binding[term]
        except KeyError:
            raise BindingError(f"uncovered variable {term.name!r}") from None
        if value.sort != term.sort:
            raise SortError(
                f"variable {term.name!r} of sort {term.sort!r} bound to "
                f"{value} of sort {value.sort!r}"
            )
        if isinstance(value, Variable):
            raise BindingError(f"variable {term.name!r} bound to a non-ground term")
        return value
    return term


def substitute_literal(lit: Literal, binding: Binding) -> Literal:
    return Literal(
        lit.positive,
        lit.predicate,
        tuple(_apply(t, binding) for t in lit.args),
        _apply(lit.lower, binding),
        _apply(lit.upper, binding),
    )


def substitute(rule: Rule, binding: Binding) -> Rule:
    """Replace every variable occurrence of ``rule`` by its bound ground term.

    The binding must cover all variables; the result is a ground rule with the
    same premise/conclusion structure.
    """
    return Rule(
        tuple(substitute_literal(p, binding) for p in rule.premises),
        substitute_literal(rule.conclusion, binding),
        rule.label,
    )


# --- matching / forward chaining -------------------------------------------

def _match_term(pattern: Term, value: Term, binding: dict[Variable, Term]) -> bool:
    if isinstance(pattern, Variable):
        bound = binding.get(pattern)
        if bound is None:
            if value.sort != pattern.sort:
                return False
            binding[pattern] = value
            return True
        return bound == value
    return pattern == value


def _match_literal(
    pattern: Literal, value: Literal, binding: dict[Variable, Term]
) -> Optional[dict[Variable, Term]]:
    """``binding`` extended so that ``pattern`` becomes ``value``, or None."""
    if (
        pattern.positive != value.positive
        or pattern.predicate != value.predicate
        or len(pattern.args) != len(value.args)
    ):
        return None
    extended = dict(binding)
    for p, v in zip(pattern.args, value.args):
        if not _match_term(p, v, extended):
            return None
    if not _match_term(pattern.lower, value.lower, extended):
        return None
    if not _match_term(pattern.upper, value.upper, extended):
        return None
    return extended


def _index(index: dict[tuple, list[Literal]], lit: Literal) -> None:
    """File ``lit`` under (polarity, predicate) and (polarity, predicate, first argument)."""
    key = (lit.positive, lit.predicate)
    index.setdefault(key, []).append(lit)
    if lit.args:
        index.setdefault(key + (lit.args[0],), []).append(lit)


def _join(
    patterns: tuple[Literal, ...], binding: dict, index: dict, delta=None, before: int = 0
) -> list:
    """Every extension of ``binding`` placing each pattern on an indexed
    literal, paired with the literals placed, in pattern order.

    Patterns are joined left to right, each against the literals sharing its
    first argument once that argument is bound.  The first ``before``
    patterns may not be placed on ``delta``.
    """
    results = []

    def step(i: int, binding: dict[Variable, Term], placed: tuple[Literal, ...]) -> None:
        if i == len(patterns):
            results.append((binding, placed))
            return
        pattern = patterns[i]
        key = (pattern.positive, pattern.predicate)
        first = pattern.args[0] if pattern.args else None
        if isinstance(first, Variable):
            first = binding.get(first)
        for cand in index.get(key if first is None else key + (first,), ()):
            if cand is not delta or i >= before:
                extended = _match_literal(pattern, cand, binding)
                if extended is not None:
                    step(i + 1, extended, placed + (cand,))

    step(0, binding, ())
    del step  # break its self-reference so the index is freed without the cyclic GC
    return results


def match_premises(premises: tuple[Literal, ...], literals: Iterable[Literal]) -> list[Binding]:
    """Enumerate all bindings placing every premise inside ``literals``.

    Premises are joined left to right, as in :func:`derive_closure`.
    Returned bindings may be partial if some rule variables occur only in
    the conclusion.
    """
    index: dict[tuple, list[Literal]] = {}
    for lit in literals:
        _index(index, lit)
    return [binding for binding, _ in _join(premises, {}, index)]


class Closure(frozenset):
    """:func:`derive_closure`'s formulae; ``weights`` maps each literal to its
    support weight and ``fired`` pairs each rule instance with its weight."""

    __slots__ = ("weights", "fired")


def derive_closure(formulae: Iterable[Union[Formula, tuple[Formula, Any]]]) -> Closure:
    """Least fixpoint of rule application, plus the canonicalized inputs.

    Every input literal is in the closure, and so is the conclusion of every
    rule instance whose premises are in it; structurally equal formulae are
    merged, and a binding that leaves a conclusion variable unbound adds
    nothing.  An input is a formula or a (formula, weight) pair; a bare
    formula weighs 1, a repeated one counts at its largest weight, and a
    literal's support weight is the max over its derivations of the min
    weight along each (the (max, min) semiring).  Literals settle in
    decreasing weight order (Knuth's generalised Dijkstra) into a persistent
    index.  Matching is semi-naive: the settling literal fills one premise of
    a rule and the other premises join settled literals, those before its
    position excluding it, so each instance is found once, when its weakest
    premise settles.  A premise whose first argument is bound meets only the
    literals with that argument, so individuals that rules join on their
    first argument add linear match work.
    """
    given = [f if isinstance(f, tuple) else (f, 1) for f in formulae]
    # A support weight is always one of the input weights, so the engine works
    # on their ranks; sorting by float first leaves few exact comparisons.
    levels = sorted({w for _, w in given}, key=lambda w: (float(w), w))
    rank = {w: i for i, w in enumerate(levels)}
    best: dict[Literal, int] = {}
    rules: dict[Rule, int] = {}
    for f, w in given:
        table = rules if isinstance(f, Rule) else best
        if table is best and not f.is_ground:
            raise GroundnessError(f"non-ground literal {f} in closure input")
        table[f] = max(table.get(f, -1), rank[w])
    triggers: dict[tuple[bool, str], list] = {}  # premise key -> rule, rank, position, ...
    for rule, r in rules.items():
        rest = [rule.premises[:j] + rule.premises[j + 1 :] for j in range(len(rule.premises))]
        for j, p in enumerate(rule.premises):
            trigger = (rule, r, j, p, rest[j], rule.conclusion.variables())
            triggers.setdefault((p.positive, p.predicate), []).append(trigger)

    tiebreak = itertools.count()
    heap = [(-r, next(tiebreak), lit) for lit, r in best.items()]
    heapq.heapify(heap)
    index: dict[tuple, list[Literal]] = {}
    fired: list[tuple[Rule, int]] = []
    while heap:
        r, _, lit = heapq.heappop(heap)
        if best[lit] != -r:
            continue  # superseded by a larger weight, settled already
        _index(index, lit)
        triggered = triggers.get((lit.positive, lit.predicate), ())
        for rule, rule_rank, j, pattern, rest, head_vars in triggered:
            binding = _match_literal(pattern, lit, {})
            if binding is None:
                continue
            value = min(rule_rank, -r)
            for binding, placed in _join(rest, binding, index, lit, j):
                if head_vars <= binding.keys():
                    head = substitute_literal(rule.conclusion, binding)
                    fired.append((Rule(placed[:j] + (lit,) + placed[j:], head, rule.label), value))
                    if best.get(head, -1) < value:
                        best[head] = value
                        heapq.heappush(heap, (-value, next(tiebreak), head))
    closure = Closure({**best, **rules})  # from dicts, so nothing is hashed again
    closure.weights = {lit: levels[r] for lit, r in best.items()}
    closure.fired = [(rule, levels[r]) for rule, r in fired]
    return closure


def closure_literals(formulae: Iterable[Formula]) -> frozenset[Literal]:
    """The ground literals of :func:`derive_closure`."""
    return frozenset(derive_closure(formulae).weights)


def entails(formulae: Iterable[Formula], target: Formula) -> bool:
    """Syntactic consequence over the restricted fragment.

    A literal is entailed iff it is in the derivability closure.  A ground
    rule is entailed via the deduction theorem: its conclusion must follow
    once its premises are added as facts.  Non-ground rules are entailed only
    by syntactic membership.
    """
    formulae = list(formulae)
    if isinstance(target, Literal):
        return target in closure_literals(formulae)
    if target.is_ground:
        if target in formulae:
            return True
        augmented = formulae + list(target.premises)
        return target.conclusion in closure_literals(augmented)
    return target in formulae
