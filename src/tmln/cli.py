"""Command-line surface: validate, ground, map, sweep, check, oracle-compare.

Exit codes: 0 on success, 1 on a domain error (bad knowledge base, unknown
component, failed checks, oracle bound), 2 on I/O or usage problems.  All
commands are deterministic given their inputs and seed.  JSON outputs carry
a ``schema_version`` field and emit weights as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .inference import (
    BoundError,
    InferenceError,
    MapResult,
    Query,
    conclusions,
    exhaustive_bound,
    map_batch,
    map_exhaustive,
    map_pruned,
    parse_query,
)
from .kernel import Literal, Rule, TimePoint, closure_literals
from .kbformat import WEIGHT_RE, parse
from .network import (
    NetworkError,
    TMLN,
    WeightedFormula,
    canonical_order,
    ground,
    support_weights,
    tf,
    weight_str,
)
from .oracle import (
    OracleBoundError,
    OracleReport,
    brute_closure,
    brute_map,
    brute_weight,
    digest,
)
from .properties import PropertyOutcome, run_all
from .randgen import random_audit_samples, random_weight_tuples
from .semantics import (
    Aggregator,
    ParametricSemantics,
    SemanticsError,
    Selector,
    Validator,
    scores_equal,
)
from .temporal import Relation, TemporalError, Timeline

SCHEMA_VERSION = 1


class CliError(Exception):
    """Domain-level failure; maps to exit code 1."""


# --- rendering ----------------------------------------------------------------

def literal_text(lit: Literal, timeline: Timeline) -> str:
    """Render a literal, using the TMIN/TMAX sentinels for a full-span interval."""
    sign = "" if lit.positive else "!"
    parts = [str(t) for t in lit.args]
    spans_all = (
        isinstance(lit.lower, TimePoint)
        and isinstance(lit.upper, TimePoint)
        and lit.lower.value == timeline.lower
        and lit.upper.value == timeline.upper
    )
    if spans_all:
        parts += ["TMIN", "TMAX"]
    else:
        parts += [str(lit.lower), str(lit.upper)]
    return f"{sign}{lit.predicate}({', '.join(parts)})"


def formula_text(wf: WeightedFormula, timeline: Timeline) -> str:
    f = wf.formula
    if isinstance(f, Literal):
        return literal_text(f, timeline)
    body = " & ".join(literal_text(p, timeline) for p in f.premises)
    head = literal_text(f.conclusion, timeline)
    label = f"{f.label}: " if f.label else ""
    return f"{label}{body} => {head}"


def formula_record(wf: WeightedFormula, timeline: Timeline, selected=None) -> dict:
    record = {
        "kind": "fact" if isinstance(wf.formula, Literal) else "rule",
        "text": formula_text(wf, timeline),
        "weight": weight_str(wf.weight),
    }
    if isinstance(wf.formula, Rule) and wf.formula.label:
        record["label"] = wf.formula.label
    if selected is not None:
        record["selected"] = weight_str(selected)
    return record


def map_record(
    result: MapResult,
    tmln: TMLN,
    query: Optional[Query],
) -> list[dict]:
    out = []
    for entry in result.entries:
        members = canonical_order(entry.instantiation)
        record = {
            "formulae": [formula_record(wf, tmln.timeline) for wf in members],
            "effective": [
                formula_record(wf, tmln.timeline) for wf in entry.effective
            ],
            "suppressed": [
                formula_record(wf, tmln.timeline) for wf in entry.suppressed
            ],
            "strength": weight_str(result.strength),
            "conclusions": [],
        }
        if query is not None:
            record["conclusions"] = [
                {
                    "literal": literal_text(lit, tmln.timeline),
                    "weight": weight_str(w),
                }
                for lit, w in conclusions(entry.instantiation, query)
            ]
        out.append(record)
    return out


def print_map_result(
    result: MapResult,
    tmln: TMLN,
    query: Optional[Query],
    full: bool,
    out: TextIO,
) -> None:
    out.write(f"strength: {weight_str(result.strength)}\n")
    for i, entry in enumerate(result.entries, start=1):
        out.write(f"map {i}:\n")
        shown = entry.effective if not full else canonical_order(entry.instantiation)
        suppressed = set(entry.suppressed)
        for wf in shown:
            marker = "  [0] " if full and wf in suppressed else "  "
            out.write(f"{marker}{formula_text(wf, tmln.timeline)} : {weight_str(wf.weight)}\n")
        if query is not None:
            for lit, w in conclusions(entry.instantiation, query):
                out.write(
                    f"  conclusion: ({literal_text(lit, tmln.timeline)}, {weight_str(w)})\n"
                )


# --- component parsing -----------------------------------------------------------

def parse_validator(token: str) -> Validator:
    try:
        return Validator(Relation.from_token(token))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def parse_selector(token: str) -> Selector:
    name, _, alpha = token.partition(":")
    try:
        if name == "thresh":
            if alpha and not WEIGHT_RE.match(alpha):
                raise CliError(
                    f"bad selector {token!r}: threshold must be a decimal "
                    "with at most nine fractional digits"
                )
            return Selector("thresh", Fraction(alpha) if alpha else Fraction(0))
        if alpha:
            raise CliError(f"selector {name!r} takes no parameter")
        return Selector(name)
    except (ValueError, ZeroDivisionError, SemanticsError) as exc:
        raise CliError(f"bad selector {token!r}: {exc}") from None


def parse_aggregator(token: str) -> Aggregator:
    name, _, alpha = token.partition(":")
    try:
        if name == "sum_alpha":
            return Aggregator("sum_alpha", float(alpha) if alpha else 1.0)
        if alpha:
            raise CliError(f"aggregator {name!r} takes no parameter")
        return Aggregator(name)
    except (ValueError, SemanticsError) as exc:
        raise CliError(f"bad aggregator {token!r}: {exc}") from None


def semantics_from(delta: str, sigma: str, theta: str) -> ParametricSemantics:
    return ParametricSemantics(
        parse_validator(delta), parse_selector(sigma), parse_aggregator(theta)
    )


def config_record(tps: ParametricSemantics) -> dict:
    return {
        "delta": str(tps.validator),
        "sigma": str(tps.selector),
        "theta": str(tps.aggregator),
    }


# --- knowledge-base loading --------------------------------------------------------

def read_text(path: str) -> str:
    """The file's UTF-8 text; an unreadable or undecodable file exits 2."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    print(f"{path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def load_kb(path: str) -> TMLN:
    outcome = parse(read_text(path))
    for diag in outcome.diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)
    if not outcome.ok:
        raise CliError(f"{path}: knowledge base rejected")
    return outcome.tmln


# --- subcommands ------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    report = load_kb(args.path).validate()
    for line in report:
        print(f"{args.path}: error: {line}", file=sys.stderr)
    return 1 if report else 0


def cmd_ground(args: argparse.Namespace) -> int:
    M = load_kb(args.path)
    members = canonical_order(ground(M))
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kb": Path(args.path).name,
            "instantiation": [formula_record(wf, M.timeline) for wf in members],
        }
        print(json.dumps(payload, indent=2))
        return 0
    for wf in members:
        print(f"{formula_text(wf, M.timeline)} : {weight_str(wf.weight)}")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    bound = exhaustive_bound(args.bound)
    M = load_kb(args.path)
    tps = semantics_from(args.delta, args.sigma, args.theta)
    query = (
        parse_query(args.query, M.timeline.lower, M.timeline.upper)
        if args.query
        else None
    )
    result = map_pruned(M, tps) if args.pruned else map_exhaustive(M, tps, bound=bound)
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kb": Path(args.path).name,
            "config": config_record(tps),
            "maps": map_record(result, M, query),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"config: delta={args.delta} sigma={args.sigma} theta={args.theta}")
    print_map_result(result, M, query, args.full, sys.stdout)
    return 0


def read_sweep(path: str) -> list[ParametricSemantics]:
    configs = []
    for no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = {}
        for token in line.split():
            key, eq, value = token.partition("=")
            if not eq or key not in ("delta", "sigma", "theta"):
                raise CliError(f"{path}:{no}: bad sweep entry {token!r}")
            fields[key] = value
        missing = {"delta", "sigma", "theta"} - set(fields)
        if missing:
            raise CliError(f"{path}:{no}: missing {sorted(missing)}")
        configs.append(semantics_from(fields["delta"], fields["sigma"], fields["theta"]))
    if not configs:
        raise CliError(f"{path}: no configurations")
    return configs


def sweep_payload(M: TMLN, kb_name: str, configs, query: Optional[Query]) -> dict:
    results = map_batch(M, configs)
    rows = []
    for tps, result in zip(configs, results):
        rows.append(
            {
                "config": config_record(tps),
                "strength": weight_str(result.strength),
                "maps": map_record(result, M, query),
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kb": kb_name,
        "query": None,
        "rows": rows,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    M = load_kb(args.path)
    configs = read_sweep(args.sweep)
    query = (
        parse_query(args.query, M.timeline.lower, M.timeline.upper)
        if args.query
        else None
    )
    payload = sweep_payload(M, Path(args.path).name, configs, query)
    payload["query"] = args.query
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    for row in payload["rows"]:
        cfg = row["config"]
        print(f"config: delta={cfg['delta']} sigma={cfg['sigma']} theta={cfg['theta']}")
        print(f"strength: {row['strength']}")
        for i, m in enumerate(row["maps"], start=1):
            shown = m["formulae"] if args.full else m["effective"]
            body = ", ".join(f"{r['text']}" for r in shown)
            print(f"map {i}: {{{body}}}")
            for c in m["conclusions"]:
                print(f"  conclusion: ({c['literal']}, {c['weight']})")
        print()
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.mutant:
        return _run_mutant(args)
    outcomes: list[PropertyOutcome] = []
    if args.path:
        M = load_kb(args.path)
        outcomes.append(_kb_oracle_outcome(M, args.path))
    outcomes.extend(run_all(args.seed, args.trials))
    failed = [o for o in outcomes if not o.passed]
    for outcome in outcomes:
        print(outcome)
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} suites passed")
    return 1 if failed else 0


def _kb_oracle_outcome(M: TMLN, path: str) -> PropertyOutcome:
    outcome = PropertyOutcome(f"kb-oracle-equivalence({Path(path).name})")
    tps = ParametricSemantics(Validator(Relation.TCON), Selector("id"), Aggregator("sum"))
    engine = map_exhaustive(M, tps)
    states, best = brute_map(M, tps)
    outcome.trials += 1
    if set(engine.instantiations) != set(states) or not scores_equal(engine.strength, best):
        outcome.fail("engine and oracle disagree on this knowledge base")
    return outcome


def _run_mutant(args: argparse.Namespace) -> int:
    """Run one audit with a deliberately broken component; expect detection."""
    from .semantics import audit_well_behaved
    from .temporal import RelationKind

    condition = args.mutant
    rng = random.Random(args.seed)
    sigma = Selector("id")
    theta = Aggregator("sum")
    validator = Validator(Relation.TINC)

    broken_sigma = sigma
    broken_theta = theta
    broken_validator = validator
    if condition.startswith("theta"):
        base = theta
        shift = {
            "theta-a": lambda ws: Fraction(1, 10) if not ws else base(ws),
            "theta-b": lambda ws: base(ws) - 1 if len(ws) == 1 else base(ws),
            "theta-c": lambda ws: base(ws) + (float(ws[0]) if ws else 0.0),
            "theta-d": lambda ws: base(ws) + Fraction(len(ws), 100),
            "theta-e": lambda ws: base(ws[:-1]) - float(ws[-1]) if ws else base(ws),
        }.get(condition)
        if shift is None:
            raise CliError(f"unknown mutant {condition!r}")
        broken_theta = shift
    elif condition.startswith("sigma"):
        shift = {
            "sigma-a": lambda items: (Fraction(0),) if not items else sigma(items),
            "sigma-b": lambda items: (),
            "sigma-c": lambda items: tuple(
                w if w != 0 else Fraction(1, 2) for w in sigma(items)
            ),
            "sigma-d": lambda items: sigma(items)[:-1],
            "sigma-e": lambda items: tuple(w / 2 for w in sigma(items)),
        }.get(condition)
        if shift is None:
            raise CliError(f"unknown mutant {condition!r}")
        broken_sigma = shift
    elif condition == "delta-a":
        broken_validator = lambda items: 0
    else:
        raise CliError(f"unknown mutant {condition!r}")

    report = audit_well_behaved(
        broken_validator,
        broken_sigma,
        broken_theta,
        random_audit_samples(rng, max(50, args.trials // 10)),
        RelationKind(Relation.TINC, negated=True),
        random_weight_tuples(rng, max(50, args.trials // 10)),
    )
    print(report)
    if condition in report.failures():
        print(f"mutant detected: {condition}")
        return 1
    print(f"mutant NOT detected: {condition}")
    return 0


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    M = load_kb(args.path)
    tps = semantics_from(args.delta, args.sigma, args.theta)
    reports: list[OracleReport] = []

    formulae = sorted(tf(M), key=str)
    engine_lits = sorted(str(l) for l in closure_literals(formulae))
    oracle_lits = sorted(str(l) for l in brute_closure(formulae))
    reports.append(
        OracleReport(
            "closure",
            digest(formulae),
            "; ".join(oracle_lits),
            "; ".join(engine_lits),
            engine_lits == oracle_lits,
        )
    )

    members = sorted(M.facts | M.rules, key=str)
    if len(members) <= 10:
        engine_weights = support_weights(M)
        for wf in canonical_order(M.facts):
            assert isinstance(wf.formula, Literal)
            engine_w = engine_weights[wf.formula]
            oracle_w = brute_weight(wf.formula, M)
            reports.append(
                OracleReport(
                    f"weight({wf.formula})",
                    digest(members),
                    weight_str(oracle_w),
                    weight_str(engine_w),
                    engine_w == oracle_w,
                )
            )

    engine_map = map_exhaustive(M, tps)
    pruned_map = map_pruned(M, tps)
    oracle_states, oracle_best = brute_map(M, tps)
    engine_states = {frozenset(i) for i in engine_map.instantiations}
    reports.append(
        OracleReport(
            "map",
            digest(members),
            f"{len(oracle_states)} states, best {weight_str(oracle_best)}",
            f"{len(engine_states)} states, best {weight_str(engine_map.strength)}",
            engine_states == set(oracle_states)
            and engine_states == set(pruned_map.instantiations)
            and scores_equal(engine_map.strength, oracle_best),
        )
    )

    ok = True
    for r in reports:
        status = "match" if r.match else "MISMATCH"
        print(f"{r.operation}: {status} (inputs {r.inputs_digest})")
        if not r.match:
            ok = False
            print(f"  oracle: {r.oracle_output}")
            print(f"  engine: {r.engine_output}")
    return 0 if ok else 1


# --- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmln",
        description="Reason over weighted temporal knowledge bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a knowledge base")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ground", help="print the maximal instantiation")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("map", help="most-probable-state inference")
    p.add_argument("path")
    p.add_argument("--delta", required=True, help="pCon|tCon|pInc|tInc")
    p.add_argument("--sigma", default="id", help="id|thresh[:a]|rule")
    p.add_argument("--theta", default="sum", help="sum|sum_alpha[:a]|psum")
    p.add_argument("--query", help="conclusion pattern, e.g. 'PeasantFamily(*,*,*)'")
    p.add_argument("--full", action="store_true", help="show zero-contribution formulae")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--pruned", action="store_true",
        help="branch-and-bound search with an incrementally carried bound; no subset bound",
    )
    p.add_argument("--bound", help="exhaustive subset bound override")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("sweep", help="run a file of semantics configurations")
    p.add_argument("path")
    p.add_argument("sweep")
    p.add_argument("--query", help="conclusion pattern applied to every row")
    p.add_argument("--full", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run the randomized property suites")
    p.add_argument("path", nargs="?")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--mutant", help="audit a deliberately broken component")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle-compare", help="engine versus brute-force oracle")
    p.add_argument("path")
    p.add_argument("--delta", default="tCon")
    p.add_argument("--sigma", default="id")
    p.add_argument("--theta", default="sum")
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        CliError, NetworkError, SemanticsError, InferenceError, TemporalError, OracleBoundError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
