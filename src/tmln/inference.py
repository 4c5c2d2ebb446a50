"""Most-probable-state inference over subsets of the maximal instantiation.

A knowledge base is grounded and every subset of the result is a candidate
state; inference keeps the inclusion-maximal states of maximal strength under
a chosen parametric semantics.  One branch-and-bound over the inclusion
order serves both the pruned search and the batch search behind ``sweep``;
it is sound for the shipped (monotone) components only.  The exhaustive
search, which scores every subset, is kept as the reference it must equal.

Subsets are represented as bitmasks over the canonically ordered members of
the maximal instantiation; derivability closures are computed on interned
literal bitsets and memoized, so the batch search runs every semantics on one
shared state.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .kernel import Constant, Literal, TimePoint
from .kernel import closure_literals  # noqa: F401  -- a name perfbench's tracer rebinds here
from .network import (
    Instantiation,
    TMLN,
    WeightedFormula,
    Weight,
    ZERO,
    canonical_order,
    formula_key,
    ground,
    support_weights,
)
from .semantics import UNSHIPPED, ParametricSemantics, Ranking, Score, WeightedState

DEFAULT_EXHAUSTIVE_BOUND = 20
BOUND_ENV_VAR = "TMLN_EXHAUSTIVE_BOUND"


class InferenceError(Exception):
    """Unusable inference request."""


class BoundExceededError(InferenceError):
    """The instantiation is too large for exhaustive search."""


class QueryError(InferenceError):
    """Malformed conclusion query pattern."""


class BoundError(InferenceError):
    """A malformed or negative exhaustive bound."""


def exhaustive_bound(override: Union[int, str, None] = None) -> int:
    """The exhaustive bound: ``override``, else ``TMLN_EXHAUSTIVE_BOUND``, else the default."""
    if override is not None:
        raw, source = override, "bound"
    else:
        raw, source = os.environ.get(BOUND_ENV_VAR) or DEFAULT_EXHAUSTIVE_BOUND, BOUND_ENV_VAR
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise BoundError(f"{source} must be a non-negative integer, got {raw!r}")
    return value


@dataclass(frozen=True)
class MapEntry:
    """One optimal state: its members in canonical order, split by selector contribution."""

    members: tuple[WeightedFormula, ...]
    effective: tuple[WeightedFormula, ...]
    suppressed: tuple[WeightedFormula, ...]

    @property
    def instantiation(self) -> Instantiation:
        return frozenset(self.members)


@dataclass(frozen=True)
class MapResult:
    """The inclusion-maximal argmax states and their shared strength."""

    entries: tuple[MapEntry, ...]
    strength: Score

    @property
    def instantiations(self) -> tuple[Instantiation, ...]:
        return tuple(e.instantiation for e in self.entries)


def _maximal_masks(masks: list[int]) -> list[int]:
    kept: list[int] = []
    for mask in sorted(masks, key=lambda m: -bin(m).count("1")):
        if not any(mask != k and mask & ~k == 0 for k in kept):
            kept.append(mask)
    return kept


def _entry(state: WeightedState, tps: ParametricSemantics, mask: int) -> MapEntry:
    members = tuple(state.members[i] for i in state.member_indices(mask))
    slots = state.slots(tps.selector, mask)
    effective = tuple(wf for wf, s in zip(members, slots) if s != ZERO)
    suppressed = tuple(wf for wf, s in zip(members, slots) if s == ZERO)
    return MapEntry(members, effective, suppressed)


def _result(state: WeightedState, tps: ParametricSemantics, argmax: list[int]) -> MapResult:
    """Entries in canonical member order; the strength is a largest mask's, since
    tied states may differ within the float ``sum_alpha`` tolerance."""
    maximal = _maximal_masks(argmax)
    entries = tuple(_entry(state, tps, m) for m in sorted(maximal, key=state.member_indices))
    strength = state.strength(tps, maximal[0]) if maximal else ZERO
    return MapResult(entries, strength)


def _state_of(M: Union[TMLN, Instantiation]) -> WeightedState:
    members = ground(M) if isinstance(M, TMLN) else frozenset(M)
    return WeightedState(canonical_order(members))


def _check_shipped(tps: ParametricSemantics) -> None:
    if not tps.shipped:
        raise InferenceError(f"the search needs the shipped component families; {UNSHIPPED}")


def _check_bound(state: WeightedState, bound: Optional[int]) -> None:
    limit = exhaustive_bound(bound)
    if state.n > limit:
        raise BoundExceededError(
            f"instantiation has {state.n} formulae, over the exhaustive "
            f"bound {limit}; use the pruned search"
        )


def _branch_and_bound(state: WeightedState, tps: ParametricSemantics) -> MapResult:
    """Branch-and-bound over the inclusion order; equals the exhaustive result.

    Sound because, for the shipped components, a validator rejection is
    persistent under supersets (closures only grow), so a rejected subset
    is never extended, and the aggregator is monotone and symmetric, so the
    key of any extension is bounded by taking every undecided member at its
    selector ceiling.  The search carries the key of the decided members
    down the recursion, and the fold of the undecided ceilings is
    precomputed per depth, so a node's bound is one ``combine`` and one
    comparison.  Under ``id`` and ``thresh`` every slot is at its ceiling
    and a leaf's key is the carried key; under ``rule`` the leaf's slots are
    recomputed.  One pass keeps the best positive key and the subsets tying
    it; when no subset scores above 0, every subset ties at 0 and the full
    instantiation is the single inclusion-maximal optimum.
    """
    n = state.n
    kind = tps.validator.accepting_kind
    rank = Ranking(state, tps)
    terms, zero, combine, empty = rank.terms, rank.zero, rank.combine, rank.empty
    leaf_key = rank.key if tps.selector.kind == "rule" else None
    # suffix[d] folds the ceilings of the members still undecided at depth d.
    suffix = [rank.identity] * (n + 1)
    for d in range(n - 1, -1, -1):
        suffix[d] = combine(terms[d], suffix[d + 1])

    best = floor = empty
    found: list[tuple[Score, int]] = []

    def search(mask: int, depth: int, key: Score) -> None:
        """Visit a node whose bound the caller has checked against ``floor``."""
        nonlocal best, floor
        if depth == n:
            if leaf_key is not None:
                key = leaf_key(mask)
            if key > empty and key >= floor:
                found.append((key, mask))
                if key > best:
                    best, floor = key, rank.floor(key)
            return
        extended = mask | 1 << depth
        if state.holds(kind, extended):
            # The same ceilings are chosen or undecided, and no leaf has
            # raised ``floor`` since the check: the bound still holds.
            search(extended, depth + 1, combine(key, terms[depth]))
        key = combine(key, zero)
        bound = combine(key, suffix[depth + 1])
        if bound > empty and bound >= floor:
            search(mask, depth + 1, key)

    if combine(rank.start, suffix[0]) > empty:
        search(0, 0, rank.start)
    del search  # break its self-reference so the state is freed without the cyclic GC
    if best == empty:
        return _result(state, tps, [state.full])
    return _result(state, tps, [m for k, m in found if k >= floor])


def map_batch(
    M: Union[TMLN, Instantiation],
    semantics: Sequence[ParametricSemantics],
    bound: Optional[int] = None,
) -> list[MapResult]:
    """Inference for several semantics on one shared state.

    The state is grounded and interned once, so its memoized closures serve
    every configuration; each configuration runs the branch-and-bound.  The
    exhaustive bound still applies: it is the sweep's search budget.
    """
    for tps in semantics:
        _check_shipped(tps)
    state = _state_of(M)
    _check_bound(state, bound)
    return [_branch_and_bound(state, tps) for tps in semantics]


def map_exhaustive(
    M: Union[TMLN, Instantiation],
    tps: ParametricSemantics,
    bound: Optional[int] = None,
) -> MapResult:
    """Score every subset of the maximal instantiation; keep the best states.

    The reference search: the pruned and batch searches must agree with it.
    """
    _check_shipped(tps)
    state = _state_of(M)
    _check_bound(state, bound)
    rank = Ranking(state, tps)
    keys = [rank.key(m) for m in range(1 << state.n)]
    floor = rank.floor(max(keys))
    return _result(state, tps, [m for m, k in enumerate(keys) if k >= floor])


def map_pruned(M: Union[TMLN, Instantiation], tps: ParametricSemantics) -> MapResult:
    """The branch-and-bound search on one semantics, without the exhaustive bound."""
    _check_shipped(tps)
    return _branch_and_bound(_state_of(M), tps)


# --- conclusion queries -------------------------------------------------------

_QUERY_RE = re.compile(
    r"^\s*([!+]?)\s*([A-Z][A-Za-z0-9_]*)\s*(?:\(\s*(.*?)\s*\))?\s*$"
)


@dataclass(frozen=True)
class Query:
    """A literal pattern: predicate, optional polarity, per-position terms.

    Each term is a constant name, a time point, or ``None`` for a wildcard;
    ``terms`` of ``None`` matches any arity.
    """

    predicate: str
    terms: Optional[tuple[Optional[Union[str, int]], ...]] = None
    positive: Optional[bool] = None

    def matches(self, lit: Literal) -> bool:
        if lit.predicate != self.predicate:
            return False
        if self.positive is not None and lit.positive != self.positive:
            return False
        if self.terms is None:
            return True
        positions = tuple(lit.args) + (lit.lower, lit.upper)
        if len(positions) != len(self.terms):
            return False
        for want, got in zip(self.terms, positions):
            if want is None:
                continue
            if isinstance(want, int):
                if not (isinstance(got, TimePoint) and got.value == want):
                    return False
            elif not (isinstance(got, Constant) and got.name == want):
                return False
        return True


def parse_query(text: str, tmin: Optional[int] = None, tmax: Optional[int] = None) -> Query:
    """Parse a pattern like ``PeasantFamily(*, *, *)`` or ``!Studied(NO, CoN, *, *)``."""
    m = _QUERY_RE.match(text)
    if not m:
        raise QueryError(f"malformed query pattern {text!r}")
    sign, predicate, body = m.groups()
    positive = {"": None, "+": True, "!": False}[sign]
    if body is None:
        return Query(predicate, None, positive)
    if body == "":
        raise QueryError(f"empty argument list in query {text!r}")
    terms: list[Optional[Union[str, int]]] = []
    for raw in (p.strip() for p in body.split(",")):
        if raw == "*":
            terms.append(None)
        elif raw == "TMIN":
            if tmin is None:
                raise QueryError("TMIN in query but no timeline given")
            terms.append(tmin)
        elif raw == "TMAX":
            if tmax is None:
                raise QueryError("TMAX in query but no timeline given")
            terms.append(tmax)
        elif re.fullmatch(r"-?\d+", raw):
            terms.append(int(raw))
        elif re.fullmatch(r"[A-Z][A-Za-z0-9_]*", raw):
            terms.append(raw)
        else:
            raise QueryError(f"bad term {raw!r} in query {text!r}")
    return Query(predicate, tuple(terms), positive)


def conclusions(
    instantiation: Iterable[WeightedFormula], query: Query
) -> tuple[tuple[Literal, Weight], ...]:
    """Derivable literals matching the pattern, with their support weights.

    Weights are computed against the given state only, so a conclusion is as
    strong as its best derivation within that state.
    """
    out = [(lit, w) for lit, w in support_weights(instantiation).items() if query.matches(lit)]
    out.sort(key=lambda pair: formula_key(pair[0]))
    return tuple(out)
