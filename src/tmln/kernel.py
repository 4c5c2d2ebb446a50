"""Core syntax and derivability for temporal knowledge bases.

A knowledge base talks about *temporal literals*: signed atoms whose last two
arguments are the bounds of the validity interval, e.g.
``Studied(NO, CoN, 1340, 1354)`` or ``!PeasantFamily(NO, 1300, 1400)``.
Rules are flat implications ``p1 & ... & pk => c`` over such literals, with
lowercase variables universally quantified.

Derivability is forward chaining over this restricted fragment: facts are
literals, rules fire once all their (instantiated) premises are in the
closure.  Negative literals are first-class atoms -- ``P`` and ``!P`` in the
same closure do *not* explode into everything; conflicts between them are the
business of the temporal consistency relations, not of derivability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

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


def match_premises(
    premises: tuple[Literal, ...], literals: Iterable[Literal]
) -> list[dict[Variable, Term]]:
    """Enumerate all bindings placing every premise inside ``literals``.

    Premises are joined left to right against an index by polarity and
    predicate name.  Returned bindings may be partial if some rule variables
    occur only in the conclusion.
    """
    index: dict[tuple[bool, str], list[Literal]] = {}
    for lit in literals:
        index.setdefault((lit.positive, lit.predicate), []).append(lit)

    results: list[dict[Variable, Term]] = []

    def join(i: int, binding: dict[Variable, Term]) -> None:
        if i == len(premises):
            results.append(binding)
            return
        pat = premises[i]
        for cand in index.get((pat.positive, pat.predicate), ()):
            extended = _match_literal(pat, cand, binding)
            if extended is not None:
                join(i + 1, extended)

    join(0, {})
    return results


def derive_closure(formulae: Iterable[Formula]) -> frozenset[Formula]:
    """Least fixpoint of rule application, plus the canonicalized inputs.

    Every input literal is in the closure; whenever a rule's premises (under
    some binding, for rules with variables) are all derived literals, its
    instantiated conclusion joins the closure.  Structurally equal formulae
    are merged.  Rules whose conclusion still has unbound variables after
    premise matching contribute nothing for that binding.
    """
    literals: set[Literal] = set()
    rules: list[Rule] = []
    for f in formulae:
        if isinstance(f, Literal):
            if not f.is_ground:
                raise GroundnessError(f"non-ground literal {f} in closure input")
            literals.add(f)
        else:
            rules.append(f)

    changed = True
    while changed:
        changed = False
        for rule in rules:
            for binding in match_premises(rule.premises, literals):
                if not rule.conclusion.variables() <= set(binding):
                    continue
                concl = substitute_literal(rule.conclusion, binding)
                if concl not in literals:
                    literals.add(concl)
                    changed = True
    return frozenset(literals) | frozenset(rules)


def closure_literals(formulae: Iterable[Formula]) -> frozenset[Literal]:
    """The ground literals of :func:`derive_closure`."""
    return frozenset(f for f in derive_closure(formulae) if isinstance(f, Literal))


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
