"""Timeline, time intervals, homogenization and temporal consistency relations.

Time is a bounded discrete axis of integers.  The interval extractor turns a
pair of bounds into the closed range of points between them; all interval set
operations are done by range arithmetic on the bound pairs, never by
materializing point sets.

Consistency between a set of formulae is judged on complementary literal
pairs in the derivability closure: ``P(args, t1, t1')`` against
``!P(args, t2, t2')``.  Four relations are supported:

* ``pCon``  -- every pair leaves time on both sides (neither interval
  swallows the other);
* ``tCon``  -- every pair is disjoint;
* ``pInc``  -- some pair overlaps;
* ``tInc``  -- some pair covers exactly the same interval.

``tCon`` and ``pInc`` are complements; ``tCon => pCon => !tInc`` and dually
``tInc => !pCon => pInc``.

Relations are evaluated on a :class:`GroundState`, which interns the literals
of ground formulae as bits; the closure and the relations of any subset of
its formulae are then integer work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .kernel import Formula, GroundnessError, Literal, Rule, TimePoint


class TemporalError(Exception):
    """Invalid interval or timeline usage."""


@dataclass(frozen=True)
class Timeline:
    """Inclusive integer bounds of the time axis."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise TemporalError(f"timeline bounds inverted: {self.lower} > {self.upper}")

    def __contains__(self, value: int) -> bool:
        return self.lower <= value <= self.upper

    def span(self) -> "TimeInterval":
        return TimeInterval(self.lower, self.upper)


@dataclass(frozen=True)
class TimeInterval:
    """Closed, non-empty range of integer time points."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise TemporalError(f"inverted bounds: {self.lower} > {self.upper}")

    def __len__(self) -> int:
        return self.upper - self.lower + 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lower, self.upper + 1))

    def intersects(self, other: "TimeInterval") -> bool:
        return max(self.lower, other.lower) <= min(self.upper, other.upper)

    def difference_nonempty(self, other: "TimeInterval") -> bool:
        """True iff some point of ``self`` lies outside ``other``."""
        return self.lower < other.lower or self.upper > other.upper


def ti(t1: int | TimePoint, t2: int | TimePoint, timeline: Timeline | None = None) -> TimeInterval:
    """Extract the interval of time points between two bounds.

    Bounds must not be inverted and, when a timeline is given, must lie on it.
    """
    lo = t1.value if isinstance(t1, TimePoint) else t1
    hi = t2.value if isinstance(t2, TimePoint) else t2
    if lo > hi:
        raise TemporalError(f"inverted bounds: {lo} > {hi}")
    if timeline is not None and (lo not in timeline or hi not in timeline):
        raise TemporalError(f"bounds [{lo}, {hi}] outside timeline [{timeline.lower}, {timeline.upper}]")
    return TimeInterval(lo, hi)


class Relation(enum.Enum):
    """The four temporal (in)consistency relations."""

    PCON = "pCon"
    TCON = "tCon"
    PINC = "pInc"
    TINC = "tInc"

    @classmethod
    def from_token(cls, token: str) -> "Relation":
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"unknown relation {token!r}")


@dataclass(frozen=True)
class RelationKind:
    """A relation, optionally negated (``!pCon`` etc.)."""

    relation: Relation
    negated: bool = False

    @classmethod
    def from_token(cls, token: str) -> "RelationKind":
        negated = token.startswith("!")
        return cls(Relation.from_token(token.lstrip("!")), negated)

    def __str__(self) -> str:
        return ("!" if self.negated else "") + self.relation.value


def tau(formulae: Iterable[Formula], timeline: Timeline) -> frozenset[Formula]:
    """Homogenize bounds: every literal occurrence gets the maximal interval.

    Applies to facts and to literals inside rules alike; idempotent.
    """
    lo, hi = TimePoint(timeline.lower), TimePoint(timeline.upper)

    def widen(lit: Literal) -> Literal:
        return lit.with_bounds(lo, hi)

    out: set[Formula] = set()
    for f in formulae:
        if isinstance(f, Literal):
            out.add(widen(f))
        else:
            out.add(Rule(tuple(widen(p) for p in f.premises), widen(f.conclusion), f.label))
    return frozenset(out)


# Kinds of clash between the intervals of a complementary literal pair.
OVERLAP = 1  # the intervals share a point
EQUAL = 2  # the intervals coincide
NESTED = 4  # one interval has no point outside the other

#: Per relation: the clash kind that decides it, and whether the relation
#: holds when some complementary pair of the closure shows that kind.
_WITNESS = {
    Relation.PCON: (NESTED, False),
    Relation.TCON: (OVERLAP, False),
    Relation.PINC: (OVERLAP, True),
    Relation.TINC: (EQUAL, True),
}


def _clash(a: TimeInterval, b: TimeInterval) -> int:
    kinds = OVERLAP if a.intersects(b) else 0
    if a == b:
        kinds |= EQUAL
    if not (a.difference_nonempty(b) and b.difference_nonempty(a)):
        kinds |= NESTED
    return kinds


class GroundState:
    """Interned view of a sequence of ground formulae, scored subset by subset.

    A subset is a bitmask over ``formulae``.  Every literal occurring anywhere
    (fact, premise or conclusion) gets one bit, so derivability closures and
    the clashes of complementary pairs inside them are integer work, memoized
    per subset.  This is the only place relations are evaluated.
    """

    def __init__(self, formulae: Sequence[Formula]):
        self.n = len(formulae)
        self.full = (1 << self.n) - 1
        lit_ids: dict[Literal, int] = {}

        def bit(lit: Literal) -> int:
            if not lit.is_ground:
                raise GroundnessError(f"non-ground literal {lit}")
            return 1 << lit_ids.setdefault(lit, len(lit_ids))

        self.fact_bit: list[int] = []
        self.prem_mask: list[int] = []
        self.concl_bit: list[int] = []
        for f in formulae:
            if isinstance(f, Literal):
                self.fact_bit.append(bit(f))
                self.prem_mask.append(0)
                self.concl_bit.append(0)
            else:
                mask = 0
                for p in f.premises:
                    mask |= bit(p)
                self.fact_bit.append(0)
                self.prem_mask.append(mask)
                self.concl_bit.append(bit(f.conclusion))
        self.rule_indices = [i for i, f in enumerate(formulae) if isinstance(f, Rule)]
        self.rule_mask = sum(1 << i for i in self.rule_indices)

        # Complementary literal pairs: per literal id, each partner's bit and
        # the pair's clash kinds.
        by_atom: dict[tuple[str, tuple], list[tuple[Literal, int]]] = {}
        for lit, k in lit_ids.items():
            by_atom.setdefault((lit.predicate, lit.args), []).append((lit, k))
        self.partners: list[list[tuple[int, int]]] = [[] for _ in lit_ids]
        for group in by_atom.values():
            for pos, i in group:
                if pos.positive:
                    for neg, j in group:
                        if not neg.positive:
                            kinds = _clash(ti(pos.lower, pos.upper), ti(neg.lower, neg.upper))
                            self.partners[i].append((1 << j, kinds))
                            self.partners[j].append((1 << i, kinds))
        self._closure: dict[int, int] = {0: 0}
        self._clashes: dict[int, int] = {0: 0}

    def closure_bits(self, mask: int) -> int:
        """Literal bits derivable from the subset: its facts, then rule firing."""
        lits = self._closure.get(mask)
        return self._extend(mask)[0] if lits is None else lits

    def clashes(self, mask: int) -> int:
        """Union of the clash kinds of the complementary pairs in the closure."""
        kinds = self._clashes.get(mask)
        return self._extend(mask)[1] if kinds is None else kinds

    def _extend(self, mask: int) -> tuple[int, int]:
        """Memoize the closure and clash kinds of the subset.

        Each is built from the subset less its highest member, the parent:
        the new member's fact is added, the subset's rules fire to a
        fixpoint, and only the pairs touching a newly derived literal can add
        clash kinds.  The nodes of the searches find their parent memoized;
        other subsets (``WeightedState.kept`` under ``rule`` at a
        branch-and-bound leaf, ``relation_holds`` on a fresh state) first
        build the chain of their unmemoized parents, one step per member.
        """
        missing = []
        while mask not in self._closure:
            missing.append(mask)
            mask ^= 1 << mask.bit_length() - 1
        lits, kinds = self._closure[mask], self._clashes[mask]
        for mask in reversed(missing):
            before = lits
            lits |= self.fact_bit[mask.bit_length() - 1]
            if mask & self.rule_mask:
                changed = True
                while changed:
                    changed = False
                    for i in self.rule_indices:
                        if mask >> i & 1:
                            concl = self.concl_bit[i]
                            if concl & ~lits and not self.prem_mask[i] & ~lits:
                                lits |= concl
                                changed = True
            new = lits & ~before
            while new:
                low = new & -new
                for other, pair_kinds in self.partners[low.bit_length() - 1]:
                    if lits & other:
                        kinds |= pair_kinds
                new ^= low
            self._closure[mask] = lits
            self._clashes[mask] = kinds
        return lits, kinds

    def holds(self, kind: RelationKind, mask: int) -> bool:
        """Evaluate a (possibly negated) relation on the closure of the subset.

        With no complementary pair the consistency relations hold vacuously
        and the inconsistency relations fail.
        """
        witness, when_present = _WITNESS[kind.relation]
        value = (self.clashes(mask) & witness != 0) == when_present
        return value != kind.negated


def relation_holds(kind: RelationKind, formulae: Iterable[Formula]) -> bool:
    """Evaluate a consistency relation on the closure of ground formulae."""
    state = GroundState(list(formulae))
    return state.holds(kind, state.full)
