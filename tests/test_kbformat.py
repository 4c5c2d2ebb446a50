"""Parsing, diagnostics and canonical serialization of the text format."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmln.kbformat import parse, serialize
from tmln.randgen import random_tmln

MINIMAL = "timeline 0 10\n"

KB_HEADER = """
sort Concept
timeline 1300 1400
const NO : Concept
pred Person(Concept)
"""


DECLS = "timeline 0 10\nsort S\nconst A : S\npred P(S)\n"

# (case, text, message, expected, line, column, byte start, byte end)
DIAGNOSTIC_CASES = [
    ("bad-char-after-indent", DECLS + "   ?fact P(A, 1, 2) : 1\n",
     "unrecognized character '?'", None, 5, 4, 46, 47),
    ("bad-char-after-non-ascii", "# \u00d8rsted\ntimeline 0 10\nsort\u00a0S ?\n",
     "unrecognized character '?'", None, 3, 8, 32, 33),
    ("crlf-line-3", "timeline 0 10\r\nsort S\r\nsort S\r\n",
     "sort 'S' already declared", None, 3, 6, 28, 29),
    ("object-then-time-variable", DECLS + "rule R : 1 { P(x, x, 2) => P(x, 1, 2) }\n",
     "variable 'x' already used with sort 'S'", None, 5, 19, 61, 62),
    ("time-then-object-variable",
     DECLS + "rule R : 1 { P(A, t, 2) & P(t, 1, 2) => P(A, t, 2) }\n",
     "variable 't' already used with sort 'Time'", None, 5, 29, 71, 72),
    ("pred-missing-comma", DECLS + "pred Q(S S)\n",
     "unexpected 'S'", "',' or ')'", 5, 10, 52, 53),
    ("pred-unclosed", DECLS + "pred Q(S\n",
     "unexpected end of line", "',' or ')'", 5, 9, 51, 51),
    ("fact-unclosed", DECLS + "fact P(A, 1\n",
     "unexpected end of line", "',' or ')'", 5, 12, 54, 54),
    ("fact-missing-term", DECLS + "fact P(A,\n",
     "unexpected end of line", "term", 5, 10, 52, 52),
    ("unknown-directive", DECLS + "facts P(A, 1, 2) : 1\n",
     "unknown directive 'facts'", "sort|timeline|const|pred|fact|rule", 5, 1, 43, 48),
    ("paren-as-object-term", DECLS + "rule R : 0.5 { P((, t, u) => P((, t, u) }\n",
     "expected a term, got '('", None, 5, 18, 60, 61),
    ("ampersand-as-object-term", DECLS + "rule R : 0.5 { P(&, t, u) => P(&, t, u) }\n",
     "expected a term, got '&'", None, 5, 18, 60, 61),
    ("bang-as-time-term", DECLS + "rule R : 0.5 { P(x, t, !) => P(x, t, u) }\n",
     "expected a term, got '!'", None, 5, 24, 66, 67),
    ("empty-fact-term", DECLS + "fact P(A,,1,2) : 1\n",
     "expected a term, got ','", None, 5, 10, 52, 53),
    ("underscore-object-variable", DECLS + "rule R : 0.5 { P(_x, t, u) => P(_x, t, u) }\n",
     "bad term '_x'", "constant or variable", 5, 18, 60, 62),
    ("underscore-time-variable", DECLS + "rule R : 0.5 { P(x, _t, u) => P(x, _t, u) }\n",
     "bad time bound '_t'", "int, TMIN, TMAX or variable", 5, 21, 63, 65),
]


def parse_ok(text):
    outcome = parse(text)
    assert outcome.ok, [str(d) for d in outcome.diagnostics]
    return outcome.tmln


def first_error(text):
    outcome = parse(text)
    assert not outcome.ok
    return outcome.errors()[0]


class TestParse:
    def test_example_counts(self, oresme):
        assert len(oresme.signature.sorts) == 2  # Concept plus the time sort
        assert len(oresme.signature.constants) == 3
        assert len(oresme.signature.predicates) == 5
        assert len(oresme.facts) == 6
        assert len(oresme.rules) == 2

    def test_timeline_only_document(self):
        M = parse_ok(MINIMAL)
        assert not M.facts and not M.rules

    def test_missing_timeline(self):
        diag = first_error("sort Concept\n")
        assert "timeline" in diag.message

    def test_weight_out_of_range_span_points_at_weight(self):
        text = KB_HEADER + "fact Person(NO, 1320, 1382) : 1.3\n"
        diag = first_error(text)
        assert "weight outside [0,1]" in diag.message
        line = text.split("\n")[diag.span.line - 1]
        assert line[diag.span.column - 1 :].startswith("1.3")

    def test_weight_precision_limit(self):
        text = KB_HEADER + "fact Person(NO, 1320, 1382) : 0.1234567891\n"
        assert "malformed weight" in first_error(text).message

    def test_duplicate_fact_with_conflicting_weight(self):
        text = KB_HEADER + (
            "fact Person(NO, 1320, 1382) : 0.4\n"
            "fact Person(NO, 1320, 1382) : 0.5\n"
        )
        assert "different weight" in first_error(text).message

    def test_duplicate_fact_with_equal_weight_merges(self):
        text = KB_HEADER + (
            "fact Person(NO, 1320, 1382) : 0.4\n"
            "fact Person(NO, 1320, 1382) : 0.40\n"
        )
        assert len(parse_ok(text).facts) == 1

    def test_unknown_predicate(self):
        assert "unknown predicate" in first_error(MINIMAL + "fact Foo(1, 2) : 1\n").message

    def test_variable_in_fact(self):
        text = KB_HEADER + "fact Person(who, 1320, 1382) : 1\n"
        assert "facts are ground" in first_error(text).message

    def test_rule_without_variables(self):
        text = KB_HEADER + "rule R1 : 0.5 { Person(NO, 1320, 1382) => Person(NO, 1320, 1382) }\n"
        assert "at least one variable" in first_error(text).message

    def test_conclusion_only_variable(self):
        text = KB_HEADER + "rule R1 : 0.5 { Person(x, t, u) => Person(y, 1320, 1321) }\n"
        diag = first_error(text)
        assert "do not occur in any premise" in diag.message

    def test_inverted_bounds(self):
        text = KB_HEADER + "fact Person(NO, 1390, 1320) : 1\n"
        assert "inverted bounds" in first_error(text).message

    def test_point_outside_timeline(self):
        text = KB_HEADER + "fact Person(NO, 1000, 1320) : 1\n"
        assert "outside timeline" in first_error(text).message

    def test_declarations_usable_before_their_line(self):
        # Facts may appear textually before the symbols they use.
        text = (
            "fact Person(NO, 1, 2) : 0.4\n"
            "pred Person(Concept)\n"
            "const NO : Concept\n"
            "sort Concept\n"
            "timeline 0 10\n"
        )
        assert len(parse_ok(text).facts) == 1

    def test_recovery_collects_every_error(self):
        text = KB_HEADER + (
            "fact Person(NO, 1320, 1382) : 1.5\n"
            "fact Mystery(NO, 1320, 1382) : 0.5\n"
            "const NO : Concept\n"
        )
        outcome = parse(text)
        messages = [d.message for d in outcome.errors()]
        assert len(messages) == 3
        assert any("weight" in m for m in messages)
        assert any("unknown predicate" in m for m in messages)
        assert any("already declared" in m for m in messages)

    def test_crlf_accepted(self, oresme_text, oresme):
        outcome = parse(oresme_text.replace("\n", "\r\n"))
        assert outcome.ok
        assert outcome.tmln == oresme

    @pytest.mark.parametrize(
        "text, message, expected, line, column, start, end",
        [case[1:] for case in DIAGNOSTIC_CASES],
        ids=[case[0] for case in DIAGNOSTIC_CASES],
    )
    def test_diagnostic_fields(self, text, message, expected, line, column, start, end):
        (diag,) = parse(text).diagnostics
        assert (diag.severity, diag.message, diag.expected) == ("error", message, expected)
        assert (diag.span.line, diag.span.column) == (line, column)
        assert (diag.span.start, diag.span.end) == (start, end)

    @settings(max_examples=300)
    @given(st.text())
    @example(KB_HEADER + "fact Person(NO, 1320, 1382) : 1.5\nfact Who(1,2) : ?\n")
    def test_spans_are_inside_the_document(self, text):
        outcome = parse(text)
        assert outcome.ok == (not outcome.diagnostics)
        raw = text.encode("utf-8")
        for diag in outcome.diagnostics:
            assert 1 <= diag.span.line <= text.count("\n") + 1
            assert diag.span.column >= 1
            assert 0 <= diag.span.start <= diag.span.end <= len(raw)


class TestSerialize:
    def test_round_trip_is_structural_identity(self, oresme):
        reparsed = parse_ok(serialize(oresme))
        assert reparsed.signature == oresme.signature
        assert reparsed.timeline == oresme.timeline
        assert reparsed.facts == oresme.facts
        assert reparsed.rules == oresme.rules

    def test_serialization_is_a_fixpoint(self, oresme):
        once = serialize(oresme)
        assert serialize(parse_ok(once)) == once

    def test_empty_kb_serializes_to_timeline_only(self):
        M = parse_ok(MINIMAL)
        assert serialize(M) == "timeline 0 10\n"

    def test_canonical_ordering(self, oresme):
        lines = serialize(oresme).splitlines()
        kinds = [line.split()[0] for line in lines]
        assert kinds == sorted(kinds, key=["sort", "timeline", "const", "pred", "fact", "rule"].index)
        consts = [l for l in lines if l.startswith("const")]
        assert consts == sorted(consts)

    def test_weight_strings_do_not_drift(self):
        text = MINIMAL + (
            "sort S\nconst A : S\npred P(S)\n"
            "fact P(A, 0, 1) : 0.123456789\n"
        )
        M = parse_ok(text)
        assert "0.123456789" in serialize(M)
        again = parse_ok(serialize(M))
        (fact,) = again.facts
        assert fact.weight == Fraction("0.123456789")

    def test_random_round_trips(self):
        rng = random.Random(13)
        for _ in range(60):
            M = random_tmln(rng, max_mi=12)
            reparsed = parse_ok(serialize(M))
            assert reparsed.facts == M.facts
            assert reparsed.rules == M.rules
            assert reparsed.timeline == M.timeline
            assert serialize(reparsed) == serialize(M)
