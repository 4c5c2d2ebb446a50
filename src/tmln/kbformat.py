"""Textual knowledge-base format: line-oriented, ``#`` comments, UTF-8.

Grammar, one declaration per line::

    sort <Name>
    timeline <int> <int>
    const <Name> : <Sort>
    pred <Name>(<Sort>, ...)                 # temporal argument pair implicit
    fact [!]<Pred>(<args>, <t1>, <t2>) : <weight>
    rule <id> : <weight> { <lit> & <lit> ... => <lit> }

Constants, sorts and predicates are capitalized.  A term is a name or a
number; a variable, in an object or a time position alike, is a name
beginning with a lowercase letter and is only legal inside rules.
``TMIN``/``TMAX`` are reserved tokens for the timeline bounds.  ``!``
negates a literal.  Weights are decimals in ``[0, 1]`` with at most nine
fractional digits and are kept exact.

Parsing recovers at line granularity and reports every problem with a source
span; a knowledge base is only produced when no errors were found.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, TypeVar

from .kernel import (
    Constant,
    Literal,
    Rule,
    Signature,
    TEMPORAL_SORT,
    Term,
    TimePoint,
    Variable,
)
from .network import TMLN, WeightedFormula, canonical_order, formula_key, weight_str
from .temporal import Timeline

TMIN_TOKEN = "TMIN"
TMAX_TOKEN = "TMAX"
RESERVED = {TMIN_TOKEN, TMAX_TOKEN, TEMPORAL_SORT}

_T = TypeVar("_T")


@dataclass(frozen=True)
class SourceSpan:
    """1-based line/column location with character byte offsets."""

    line: int
    column: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("span start after end")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    span: SourceSpan
    message: str
    expected: Optional[str] = None

    def __str__(self) -> str:
        hint = f" (expected {self.expected})" if self.expected else ""
        return f"{self.span}: {self.severity}: {self.message}{hint}"


@dataclass
class ParseOutcome:
    """Either a validated knowledge base or the reasons there is none."""

    tmln: Optional[TMLN]
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.tmln is not None

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>=>|[(){},:&!])|(?P<bad>.)"
)

WEIGHT_RE = re.compile(r"^(?:\d+)(?:\.\d{1,9})?$")

# Directive -> processing rank: declarations first (sorts, timeline,
# constants, predicates) so facts and rules can resolve symbols declared on
# later lines; facts and rules share a rank and keep their textual order.
_DIRECTIVES = {"sort": 0, "timeline": 1, "const": 2, "pred": 3, "fact": 4, "rule": 4}


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "punct"
    text: str
    column: int  # 1-based


def _tokenize(line: str) -> tuple[list[_Token], Optional[int]]:
    """Tokenize one line (comment already stripped).

    Returns the tokens and, on failure, the 1-based column of the first
    unrecognized character.
    """
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "bad":
            return tokens, m.start() + 1
        if kind != "space":
            tokens.append(_Token(kind, m.group(), m.start() + 1))
    return tokens, None


class _LineParser:
    """Cursor over one line's tokens, reporting spans relative to the file."""

    def __init__(self, parser: "_Parser", line_no: int, tokens: list[_Token], line_text: str):
        self.parser = parser
        self.line_no = line_no
        self.tokens = tokens
        self.line_text = line_text
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def span_of(self, tok: Optional[_Token]) -> SourceSpan:
        if tok is None:
            col = len(self.line_text) + 1
            return self.parser.make_span(self.line_no, col, col)
        return self.parser.make_span(self.line_no, tok.column, tok.column + len(tok.text))

    def error(self, message: str, tok: Optional[_Token] = None, expected: Optional[str] = None):
        span = self.span_of(tok if tok is not None else self.peek())
        self.parser.diagnostics.append(ParseDiagnostic("error", span, message, expected))
        raise _LineError

    def expect(
        self, kind: Optional[str] = None, text: Optional[str] = None, what: str = ""
    ) -> _Token:
        """Consume the next token; ``kind=None`` accepts any token."""
        tok = self.next()
        want = what or text or kind
        if tok is None:
            self.error("unexpected end of line", None, expected=want)
        if (kind and tok.kind != kind) or (text and tok.text != text):
            self.error(f"unexpected {tok.text!r}", tok, expected=want)
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            self.error(f"trailing input {tok.text!r}", tok)

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """Parse ``( item, ..., item )``, reading each element with ``item``."""
        self.expect("punct", "(")
        items: list[_T] = []
        while True:
            items.append(item())
            sep = self.next()
            if sep is None:
                self.error("unexpected end of line", None, expected="',' or ')'")
            if sep.text == ")":
                return items
            if sep.text != ",":
                self.error(f"unexpected {sep.text!r}", sep, expected="',' or ')'")


def _term(lp: _LineParser) -> _Token:
    """Read a term token: a name or a number."""
    tok = lp.expect(what="term")
    if tok.kind == "punct":
        lp.error(f"expected a term, got {tok.text!r}", tok)
    return tok


def _is_variable(tok: _Token) -> bool:
    """Variables, in object and time positions alike, are names beginning with
    a lowercase letter."""
    return tok.kind == "name" and tok.text[0].islower()


def _variable(lp: _LineParser, tok: _Token, sort: str, variables: Optional[dict]) -> Variable:
    """Resolve a variable term; ``variables`` is None in a fact."""
    if variables is None:
        lp.error(f"variable {tok.text!r} in a fact; facts are ground", tok)
    previous = variables.get(tok.text)
    if previous is not None and previous.sort != sort:
        lp.error(f"variable {tok.text!r} already used with sort {previous.sort!r}", tok)
    variables[tok.text] = var = Variable(tok.text, sort)
    return var


class _LineError(Exception):
    """Abandon the current line; the diagnostic is already recorded."""


class _Parser:
    def __init__(self, text: str):
        self.diagnostics: list[ParseDiagnostic] = []
        self.sorts: set[str] = set()
        self.constants: dict[str, str] = {}
        self.predicates: dict[str, tuple[str, ...]] = {}
        self.timeline: Optional[Timeline] = None
        self.facts: dict[Literal, Fraction] = {}
        self.rules: dict[str, WeightedFormula] = {}
        self.lines = text.split("\n")

    @cached_property
    def line_starts(self) -> list[int]:
        """Byte offset of each line; built only once a diagnostic needs one."""
        return list(accumulate((len(line.encode("utf-8")) + 1 for line in self.lines), initial=0))

    def make_span(self, line_no: int, col_start: int, col_end: int) -> SourceSpan:
        line = self.lines[line_no - 1]
        base = self.line_starts[line_no - 1]
        start = base + len(line[: col_start - 1].encode("utf-8"))
        end = base + len(line[: col_end - 1].encode("utf-8"))
        return SourceSpan(line_no, col_start, start, end)

    def run(self) -> ParseOutcome:
        pending: list[tuple[int, list[_Token], str]] = []
        for idx, raw in enumerate(self.lines, start=1):
            line = raw.rstrip("\r")
            body = line.split("#", 1)[0]
            tokens, bad_col = _tokenize(body)
            if bad_col is not None:
                self.diagnostics.append(
                    ParseDiagnostic(
                        "error",
                        self.make_span(idx, bad_col, bad_col + 1),
                        f"unrecognized character {body[bad_col - 1]!r}",
                    )
                )
            elif tokens:
                pending.append((idx, tokens, line))

        pending.sort(key=lambda item: _DIRECTIVES.get(item[1][0].text, 4))
        for idx, tokens, line in pending:
            try:
                self.dispatch(_LineParser(self, idx, tokens, line))
            except _LineError:
                continue

        if self.timeline is None:
            self.diagnostics.append(
                ParseDiagnostic(
                    "error",
                    self.make_span(1, 1, 1),
                    "missing timeline directive",
                    expected="timeline <int> <int>",
                )
            )

        if self.diagnostics:
            return ParseOutcome(None, self.diagnostics)

        signature = Signature(
            sorts=frozenset(self.sorts) | {TEMPORAL_SORT},
            constants=dict(self.constants),
            predicates=dict(self.predicates),
        )
        tmln = TMLN(
            signature=signature,
            timeline=self.timeline,
            facts=frozenset(WeightedFormula(lit, w) for lit, w in self.facts.items()),
            rules=frozenset(self.rules.values()),
        )
        return ParseOutcome(tmln, self.diagnostics)

    def dispatch(self, lp: _LineParser) -> None:
        head = lp.next()
        if head.kind != "name":
            lp.error(f"expected a directive, got {head.text!r}", head)
        if head.text not in _DIRECTIVES:
            lp.error(f"unknown directive {head.text!r}", head, expected="|".join(_DIRECTIVES))
        getattr(self, f"parse_{head.text}")(lp)

    # --- directives ---------------------------------------------------------

    def parse_sort(self, lp: _LineParser) -> None:
        tok = lp.expect("name", what="sort name")
        if tok.text in RESERVED:
            lp.error(f"{tok.text!r} is reserved", tok)
        if not tok.text[0].isupper():
            lp.error("sort names are capitalized", tok)
        if tok.text in self.sorts:
            lp.error(f"sort {tok.text!r} already declared", tok)
        lp.expect_end()
        self.sorts.add(tok.text)

    def parse_timeline(self, lp: _LineParser) -> None:
        lo = lp.expect("num", what="lower bound")
        hi = lp.expect("num", what="upper bound")
        lp.expect_end()
        if "." in lo.text or "." in hi.text:
            lp.error("timeline bounds are integers", lo)
        if self.timeline is not None:
            lp.error("timeline already declared", lo)
        lo_v, hi_v = int(lo.text), int(hi.text)
        if lo_v > hi_v:
            lp.error(f"timeline bounds inverted: {lo_v} > {hi_v}", lo)
        self.timeline = Timeline(lo_v, hi_v)

    def parse_const(self, lp: _LineParser) -> None:
        name = lp.expect("name", what="constant name")
        lp.expect("punct", ":")
        sort = lp.expect("name", what="sort name")
        lp.expect_end()
        if name.text in RESERVED:
            lp.error(f"{name.text!r} is reserved", name)
        if not name.text[0].isupper():
            lp.error("constant names are capitalized", name)
        if name.text in self.constants:
            lp.error(f"constant {name.text!r} already declared", name)
        if sort.text == TEMPORAL_SORT:
            lp.error("constants cannot have the temporal sort", sort)
        if sort.text not in self.sorts:
            lp.error(f"unknown sort {sort.text!r}", sort)
        self.constants[name.text] = sort.text

    def parse_pred(self, lp: _LineParser) -> None:
        name = lp.expect("name", what="predicate name")
        if name.text in RESERVED:
            lp.error(f"{name.text!r} is reserved", name)
        if not name.text[0].isupper():
            lp.error("predicate names are capitalized", name)
        if name.text in self.predicates:
            lp.error(f"predicate {name.text!r} already declared", name)

        def argument_sort() -> str:
            sort = lp.expect("name", what="sort name")
            if sort.text == TEMPORAL_SORT:
                lp.error("the temporal argument pair is implicit", sort)
            if sort.text not in self.sorts:
                lp.error(f"unknown sort {sort.text!r}", sort)
            return sort.text

        args = lp.comma_list(argument_sort)
        lp.expect_end()
        self.predicates[name.text] = tuple(args)

    def _parse_time_term(self, lp: _LineParser, tok: _Token, variables: Optional[dict]) -> Term:
        if tok.kind == "num":
            if "." in tok.text:
                lp.error("time points are integers", tok)
            value = int(tok.text)
            if self.timeline is not None and value not in self.timeline:
                lp.error(
                    f"time point {value} outside timeline "
                    f"[{self.timeline.lower}, {self.timeline.upper}]",
                    tok,
                )
            return TimePoint(value)
        if tok.text == TMIN_TOKEN:
            if self.timeline is None:
                lp.error("TMIN used before the timeline is known", tok)
            return TimePoint(self.timeline.lower)
        if tok.text == TMAX_TOKEN:
            if self.timeline is None:
                lp.error("TMAX used before the timeline is known", tok)
            return TimePoint(self.timeline.upper)
        if _is_variable(tok):
            return _variable(lp, tok, TEMPORAL_SORT, variables)
        lp.error(f"bad time bound {tok.text!r}", tok, expected="int, TMIN, TMAX or variable")

    def parse_literal(self, lp: _LineParser, variables: Optional[dict]) -> Literal:
        """Parse a literal; ``variables`` is None in fact position (ground only)."""
        positive = True
        tok = lp.next()
        if tok is not None and tok.text == "!":
            positive = False
            tok = lp.next()
        if tok is None or tok.kind != "name" or not tok.text[0].isupper():
            lp.error("expected a predicate name", tok)
        pred_tok = tok
        if pred_tok.text not in self.predicates:
            lp.error(f"unknown predicate {pred_tok.text!r}", pred_tok)
        expected_sorts = self.predicates[pred_tok.text]
        raw = lp.comma_list(lambda: _term(lp))
        if len(raw) != len(expected_sorts) + 2:
            lp.error(
                f"{pred_tok.text!r} takes {len(expected_sorts) + 2} arguments, got {len(raw)}",
                pred_tok,
            )
        args: list[Term] = []
        for tok, sort in zip(raw[:-2], expected_sorts):
            args.append(self._parse_object_term(lp, tok, sort, variables))
        lower = self._parse_time_term(lp, raw[-2], variables)
        upper = self._parse_time_term(lp, raw[-1], variables)
        if isinstance(lower, TimePoint) and isinstance(upper, TimePoint):
            if lower.value > upper.value:
                lp.error(f"inverted bounds: {lower} > {upper}", raw[-2])
        return Literal(positive, pred_tok.text, tuple(args), lower, upper)

    def _parse_object_term(
        self, lp: _LineParser, tok: _Token, sort: str, variables: Optional[dict]
    ) -> Term:
        if tok.kind == "num":
            lp.error(f"number {tok.text!r} in a non-temporal position", tok)
        if tok.text in (TMIN_TOKEN, TMAX_TOKEN):
            lp.error(f"{tok.text} in a non-temporal position", tok)
        if tok.text[0].isupper():
            declared = self.constants.get(tok.text)
            if declared is None:
                lp.error(f"unknown constant {tok.text!r}", tok)
            if declared != sort:
                lp.error(
                    f"constant {tok.text!r} has sort {declared!r}, expected {sort!r}", tok
                )
            return Constant(tok.text, declared)
        if not _is_variable(tok):
            lp.error(f"bad term {tok.text!r}", tok, expected="constant or variable")
        return _variable(lp, tok, sort, variables)

    def parse_weight(self, lp: _LineParser) -> Fraction:
        tok = lp.expect("num", what="weight")
        if not WEIGHT_RE.match(tok.text):
            lp.error(f"malformed weight {tok.text!r}", tok)
        value = Fraction(tok.text)
        if not 0 <= value <= 1:
            lp.error(f"weight outside [0,1]: {tok.text}", tok)
        return value

    def parse_fact(self, lp: _LineParser) -> None:
        lit_tok = lp.peek()
        literal = self.parse_literal(lp, variables=None)
        lp.expect("punct", ":")
        weight = self.parse_weight(lp)
        lp.expect_end()
        if self.facts.setdefault(literal, weight) != weight:
            lp.error(f"fact {literal} already declared with a different weight", lit_tok)

    def parse_rule(self, lp: _LineParser) -> None:
        name = lp.expect("name", what="rule id")
        if name.text in self.rules:
            lp.error(f"rule {name.text!r} already declared", name)
        lp.expect("punct", ":")
        weight = self.parse_weight(lp)
        lp.expect("punct", "{")
        variables: dict[str, Variable] = {}
        premises: list[Literal] = [self.parse_literal(lp, variables)]
        while True:
            tok = lp.next()
            if tok is None:
                lp.error("unexpected end of line", None, expected="'&' or '=>'")
            if tok.text == "=>":
                break
            if tok.text != "&":
                lp.error(f"unexpected {tok.text!r}", tok, expected="'&' or '=>'")
            premises.append(self.parse_literal(lp, variables))
        premise_vars = {v.name for p in premises for v in p.variables()}
        conclusion = self.parse_literal(lp, variables)
        lp.expect("punct", "}")
        lp.expect_end()
        rule = Rule(tuple(premises), conclusion, label=name.text)
        if not rule.variables():
            lp.error("rules must contain at least one variable", name)
        loose = {v.name for v in conclusion.variables()} - premise_vars
        if loose:
            lp.error(
                f"conclusion variables {sorted(loose)} do not occur in any premise", name
            )
        self.rules[name.text] = WeightedFormula(rule, weight)


def parse(text: str) -> ParseOutcome:
    """Parse a knowledge-base document; recover past line-level errors."""
    return _Parser(text).run()


# --- serialization ----------------------------------------------------------------

def serialize(M: TMLN) -> str:
    """Canonical document: declarations then facts then rules, each sorted.

    ``parse(serialize(M))`` is structurally equal to ``M``, and serialization
    is a fixpoint across one round-trip.
    """
    lines: list[str] = []
    for sort in sorted(M.signature.sorts - {TEMPORAL_SORT}):
        lines.append(f"sort {sort}")
    lines.append(f"timeline {M.timeline.lower} {M.timeline.upper}")
    for name in sorted(M.signature.constants):
        lines.append(f"const {name} : {M.signature.constants[name]}")
    for name in sorted(M.signature.predicates):
        args = ", ".join(M.signature.predicates[name])
        lines.append(f"pred {name}({args})")
    for wf in canonical_order(M.facts):
        assert isinstance(wf.formula, Literal)
        lines.append(f"fact {wf.formula} : {weight_str(wf.weight)}")
    rules = sorted(
        M.rules, key=lambda wf: (wf.formula.label or "", formula_key(wf.formula))
    )
    for wf in rules:
        rule = wf.formula
        assert isinstance(rule, Rule)
        if not rule.label:
            raise ValueError(f"cannot serialize an unlabeled rule: {rule}")
        body = " & ".join(str(p) for p in rule.premises)
        head = rule.conclusion
        lines.append(
            f"rule {rule.label} : {weight_str(wf.weight)} {{ {body} => {head} }}"
        )
    return "\n".join(lines) + "\n"
