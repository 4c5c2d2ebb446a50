"""Command-line behaviour: exit codes, formats, determinism, golden output."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmln.cli import main
from tmln.network import ground, weight_str
from tmln.cli import formula_text

DATA = Path(__file__).parent.parent / "src" / "tmln" / "data"
ORESME = str(DATA / "oresme.tmln")
SWEEP = str(DATA / "table3.sweep")
GOLDEN = DATA / "table3_golden.json"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


class TestValidate:
    def test_bundled_kb_is_valid(self, capsys):
        code, _, err = run_cli("validate", ORESME, capsys=capsys)
        assert code == 0 and err == ""

    def test_bad_weight_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.tmln"
        bad.write_text(
            "sort S\ntimeline 0 9\nconst A : S\npred P(S)\nfact P(A, 0, 1) : 1.3\n"
        )
        code, _, err = run_cli("validate", str(bad), capsys=capsys)
        assert code == 1
        assert "weight outside [0,1]" in err
        assert "5:" in err  # line number in the diagnostic

    def test_missing_file_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("validate", "no-such-file.tmln", capsys=capsys)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["validate", "ground"])
    def test_non_utf8_kb_exits_two(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.tmln"
        bad.write_bytes(b"\xff\xfe bad")
        with pytest.raises(SystemExit) as exc:
            main([command, str(bad)])
        _, err = capsys.readouterr()
        assert exc.value.code == 2
        assert err.count("\n") == 1 and "not UTF-8" in err


class TestGround:
    def test_lists_rule_instances_with_exact_weights(self, capsys):
        code, out, _ = run_cli("ground", ORESME, capsys=capsys)
        assert code == 0
        assert "=> PeasantFamily(NO, TMIN, TMAX) : 0.4" in out
        assert "=> PeasantFamily(NO, TMIN, TMAX) : 0.5" in out
        assert "=> !PeasantFamily(NO, TMIN, TMAX) : 0.8" in out

    def test_json_round_trips_the_instantiation(self, oresme, capsys):
        code, out, _ = run_cli("ground", ORESME, "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        records = {(r["text"], r["weight"]) for r in payload["instantiation"]}
        expected = {
            (formula_text(wf, oresme.timeline), weight_str(wf.weight))
            for wf in ground(oresme)
        }
        assert records == expected


class TestMap:
    def test_reports_conclusion_and_strength(self, capsys):
        code, out, _ = run_cli(
            "map", ORESME, "--delta", "tCon", "--sigma", "id", "--theta", "sum",
            "--query", "PeasantFamily(*,*,*)", capsys=capsys,
        )
        assert code == 0
        assert "strength: 5.2" in out
        assert "(!PeasantFamily(NO, TMIN, TMAX), 0.8)" in out

    # A knowledge base whose optimum under <tCon, rule, sum> keeps a rule
    # whose premise lost its fact: the slot is zero, so the default display
    # hides the rule while --full shows it marked.
    SUPPRESSED_KB = (
        "sort S\n"
        "timeline 0 5\n"
        "const A : S\n"
        "pred P(S)\npred Q(S)\npred R(S)\n"
        "fact P(A, 0, 1) : 0.9\n"
        "fact Q(A, 0, 3) : 0.2\n"
        "fact !Q(A, 2, 5) : 0.9\n"
        "rule R1 : 1 { Q(x, t, u) => R(x, 0, 5) }\n"
    )

    def test_suppressed_display_hides_zero_slots(self, tmp_path, capsys):
        kb = tmp_path / "suppressed.tmln"
        kb.write_text(self.SUPPRESSED_KB)
        _, out, _ = run_cli(
            "map", str(kb), "--delta", "tCon", "--sigma", "rule",
            "--theta", "sum", capsys=capsys,
        )
        assert "strength: 1.8" in out
        assert "=> R(A," not in out  # zero-contribution rule hidden

    def test_full_flag_shows_suppressed_members(self, tmp_path, capsys):
        kb = tmp_path / "suppressed.tmln"
        kb.write_text(self.SUPPRESSED_KB)
        _, out, _ = run_cli(
            "map", str(kb), "--delta", "tCon", "--sigma", "rule", "--theta",
            "sum", "--full", capsys=capsys,
        )
        assert "[0] R1: Q(A, 0, 3) => R(A, TMIN, TMAX) : 0.2" in out

    def test_unknown_component_exits_one(self, capsys):
        code, _, err = run_cli(
            "map", ORESME, "--delta", "bogus", capsys=capsys,
        )
        assert code == 1 and "unknown relation" in err

    def test_bound_exceeded_without_pruned(self, capsys):
        code, _, err = run_cli(
            "map", ORESME, "--delta", "tCon", "--bound", "4", capsys=capsys,
        )
        assert code == 1 and "pruned" in err

    def test_pruned_matches_exhaustive_output(self, capsys):
        _, exhaustive, _ = run_cli(
            "map", ORESME, "--delta", "pCon", "--json", capsys=capsys,
        )
        _, pruned, _ = run_cli(
            "map", ORESME, "--delta", "pCon", "--json", "--pruned", capsys=capsys,
        )
        assert json.loads(exhaustive) == json.loads(pruned)

    def test_empty_kb_single_empty_map(self, tmp_path, capsys):
        empty = tmp_path / "empty.tmln"
        empty.write_text("timeline 0 3\n")
        code, out, _ = run_cli("map", str(empty), "--delta", "tCon", capsys=capsys)
        assert code == 0
        assert "strength: 0" in out

    def test_ninth_decimal_breaks_the_tie(self, tmp_path, capsys):
        from test_inference import TIE_KB

        kb = tmp_path / "tie.tmln"
        kb.write_text(TIE_KB)
        for theta in ("sum", "psum", "sum_alpha:2"):
            for extra in ([], ["--pruned"]):
                code, out, _ = run_cli(
                    "map", str(kb), "--delta", "tCon", "--theta", theta, *extra, capsys=capsys
                )
                assert code == 0
                assert "strength: 0.500000001\n" in out, (theta, extra)
                assert "map 2:" not in out and "!P(A, 3, 8) : 0.500000001" in out, (theta, extra)
            code, out, _ = run_cli("oracle-compare", str(kb), "--theta", theta, capsys=capsys)
            assert code == 0 and "map: match" in out, theta
        sweep = tmp_path / "tie.sweep"
        sweep.write_text("delta=tCon sigma=id theta=sum_alpha:2\n")
        code, out, _ = run_cli("sweep", str(kb), str(sweep), capsys=capsys)
        assert code == 0
        assert "strength: 0.500000001\nmap 1: {!P(A, 3, 8)}\n\n" in out and "map 2:" not in out

    @pytest.mark.parametrize("bound", ["abc", "-1", "2.5"])
    def test_bad_bound_flag_exits_two(self, bound, capsys):
        code, out, err = run_cli(
            "map", ORESME, "--delta", "tCon", "--bound", bound, capsys=capsys,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "non-negative integer" in err

    @pytest.mark.parametrize("bound", ["abc", "-1"])
    def test_bad_bound_env_var_exits_two(self, bound, monkeypatch, capsys):
        monkeypatch.setenv("TMLN_EXHAUSTIVE_BOUND", bound)
        for extra in ([], ["--pruned"]):
            code, _, err = run_cli("map", ORESME, "--delta", "tCon", *extra, capsys=capsys)
            assert code == 2
            assert err.count("\n") == 1 and "TMLN_EXHAUSTIVE_BOUND" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--theta", "sum_alpha:nan", "not finite"),
            ("--theta", "sum_alpha:inf", "not finite"),
            ("--sigma", "thresh:1/3", "nine fractional digits"),
            ("--sigma", "thresh:0.1234567891", "nine fractional digits"),
        ],
    )
    def test_bad_component_parameter_exits_one(self, option, value, message, capsys):
        code, _, err = run_cli("map", ORESME, "--delta", "tCon", option, value, capsys=capsys)
        assert code == 1 and message in err


class TestSweep:
    def test_single_config_matches_map(self, tmp_path, capsys):
        sweep = tmp_path / "one.sweep"
        sweep.write_text("delta=tCon sigma=id theta=sum\n")
        _, sweep_out, _ = run_cli(
            "sweep", ORESME, str(sweep), "--json", "--query",
            "PeasantFamily(*,*,*)", capsys=capsys,
        )
        _, map_out, _ = run_cli(
            "map", ORESME, "--delta", "tCon", "--sigma", "id", "--theta", "sum",
            "--json", "--query", "PeasantFamily(*,*,*)", capsys=capsys,
        )
        row = json.loads(sweep_out)["rows"][0]
        direct = json.loads(map_out)
        assert row["config"] == direct["config"]
        assert row["maps"] == direct["maps"]

    def test_bundled_sweep_reproduces_the_golden_file(self, capsys):
        code, out, _ = run_cli(
            "sweep", ORESME, SWEEP, "--json", "--query", "PeasantFamily(*,*,*)",
            capsys=capsys,
        )
        assert code == 0
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_validator_sweep_respects_strength_ordering(self, tmp_path, capsys):
        sweep = tmp_path / "chain.sweep"
        sweep.write_text(
            "delta=tCon sigma=id theta=sum\n"
            "delta=pInc sigma=id theta=sum\n"
            "delta=pCon sigma=id theta=sum\n"
            "delta=tInc sigma=id theta=sum\n"
        )
        _, out, _ = run_cli("sweep", ORESME, str(sweep), "--json", capsys=capsys)
        rows = json.loads(out)["rows"]
        tcon, pinc, pcon, tinc = (float(r["strength"]) for r in rows)
        assert tcon == pinc <= pcon <= tinc

    def test_non_utf8_sweep_file_exits_two(self, tmp_path, capsys):
        sweep = tmp_path / "bad.sweep"
        sweep.write_bytes(b"delta=tCon \xff\xfe\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", ORESME, str(sweep)])
        _, err = capsys.readouterr()
        assert exc.value.code == 2
        assert err.count("\n") == 1 and "not UTF-8" in err

    def test_malformed_sweep_file(self, tmp_path, capsys):
        sweep = tmp_path / "bad.sweep"
        sweep.write_text("delta=tCon nonsense\n")
        code, _, err = run_cli("sweep", ORESME, str(sweep), capsys=capsys)
        assert code == 1 and "bad sweep entry" in err


class TestCheck:
    def test_seeded_run_is_reproducible(self, capsys):
        code1, out1, _ = run_cli("check", "--seed", "5", "--trials", "40", capsys=capsys)
        code2, out2, _ = run_cli("check", "--seed", "5", "--trials", "40", capsys=capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "suites passed" in out1

    def test_planted_mutant_is_surfaced(self, capsys):
        code, out, _ = run_cli(
            "check", "--mutant", "theta-b", "--trials", "200", capsys=capsys
        )
        assert code == 1
        assert "theta-b" in out and "mutant detected" in out

    def test_kb_argument_adds_a_suite(self, capsys):
        code, out, _ = run_cli(
            "check", ORESME, "--seed", "1", "--trials", "20", capsys=capsys
        )
        assert code == 0
        assert "kb-oracle-equivalence(oresme.tmln)" in out


class TestOracleCompare:
    def test_bundled_kb_all_match(self, capsys):
        code, out, _ = run_cli("oracle-compare", ORESME, capsys=capsys)
        assert code == 0
        assert "MISMATCH" not in out
        assert "closure: match" in out
        assert "map: match" in out

    def test_empty_kb_all_match(self, tmp_path, capsys):
        empty = tmp_path / "empty.tmln"
        empty.write_text("timeline 0 3\n")
        code, out, _ = run_cli("oracle-compare", str(empty), capsys=capsys)
        assert code == 0


KB_HEADER = ["sort S", "timeline 0 9", "const A : S", "const B : S", "pred P(S)", "pred Q(S, S)"]
KB_BODY = [
    "fact P(A, 0, 5) : 0.5",
    "fact !P(A, 3, 8) : 0.500000001",
    "fact P(B, TMIN, TMAX) : 1",
    "fact Q(A, B, 2, 4) : 0.3",
    "rule R1 : 0.8 { P(x, t, u) => !P(x, t, u) }",
    "rule R2 : 0.4 { P(x, t1, u1) & Q(x, y, t2, u2) => P(y, TMIN, TMAX) }",
]
KB_BAD = [
    "timeline 5 2",
    "fact P(C, 0, 1) : 1.5",
    "rule R3 : 1 { P(x, t, u) => Q(x, z, t, u) }",
]

kb_documents = st.one_of(
    st.binary(max_size=60),
    st.tuples(
        st.sampled_from([[], KB_HEADER]),
        st.one_of(
            st.lists(st.sampled_from(KB_BODY), max_size=8),
            st.lists(
                st.one_of(st.sampled_from(KB_HEADER + KB_BODY + KB_BAD), st.text(max_size=30)),
                max_size=10,
            ),
        ),
    )
    .map(lambda parts: "\n".join(parts[0] + parts[1]).encode()),
)
sweep_documents = st.lists(
    st.one_of(
        st.sampled_from(["delta=tCon sigma=id theta=sum", "delta=pInc sigma=rule theta=psum"]),
        st.text(max_size=30),
    ),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode())
OPTIONS = {
    "--delta": ["tCon", "pCon", "tInc", "pInc", "bogus"],
    "--sigma": ["id", "rule", "thresh", "thresh:0.5", "thresh:1/3", "thresh:x"],
    "--theta": ["sum", "psum", "sum_alpha:2", "sum_alpha:0.5", "sum_alpha:1e400", "sum_alpha:"],
    "--query": ["P(*, *, *)", "!P(A, TMIN, TMAX)", "+Q(*)", "P(", "lower", "P(TMAX, 3)"],
    "--bound": ["0", "3", "20", "-1", "abc", "99999999999999999999"],
}


def option_value(flag):
    return st.one_of(st.sampled_from(OPTIONS[flag]), st.text(max_size=12))


@st.composite
def command_lines(draw, kb_path, sweep_path):
    """A command and its options: map always gets a --delta, as it requires."""
    command = draw(st.sampled_from(["validate", "ground", "map", "sweep"]))
    argv = [command, kb_path]
    if command == "ground" and draw(st.booleans()):
        argv.append("--json")
    if command == "map":
        argv += ["--delta", draw(option_value("--delta"))]
        for flag in draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=3)):
            argv += [flag, draw(option_value(flag))]
    if command == "sweep":
        argv.append(sweep_path)
        if draw(st.booleans()):
            argv += ["--query", draw(option_value("--query"))]
    if command in ("map", "sweep"):
        flags = ["--json", "--full", "--pruned"] if command == "map" else ["--json", "--full"]
        argv += draw(st.lists(st.sampled_from(flags), max_size=2))
    return argv


class TestRobustness:
    """Every input ends in exit code 0, 1 or 2 with no traceback."""

    @settings(max_examples=150, deadline=None)
    @given(kb=st.one_of(st.none(), kb_documents), sweep=sweep_documents, data=st.data())
    def test_exit_code_is_zero_one_or_two(self, tmp_path_factory, kb, sweep, data):
        work = tmp_path_factory.mktemp("robust")
        kb_path = ORESME
        if kb is not None:
            kb_path = str(work / "kb.tmln")
            Path(kb_path).write_bytes(kb)
        sweep_path = work / "configs.sweep"
        sweep_path.write_bytes(sweep)
        argv = data.draw(command_lines(kb_path, str(sweep_path)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv


def test_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tmln.cli", "validate", ORESME],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
