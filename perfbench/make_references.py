"""Record the reference answers of every benchmark case, after checking them.

    python3 perfbench/make_references.py

Run from the root of a source checkout.  An answer is written to
``references.json`` only once it has been confirmed independently:

* ``oresme-sweep`` must match the committed ``table3_golden.json``;
* ``people-ground``: every rule instance's weight must equal the minimum of
  the rule weight and the brute-force support weights
  (``oracle.brute_weight``) of its premises, computed on the one-person KB
  of that individual, and every individual must yield both rule instances;
* ``chain-pruned``: ``map --pruned`` must agree with the exhaustive search
  (``map_batch``) and with ``oracle.brute_map`` (every case has
  |MI| <= 14, the oracle's bound).

The script stops at the first disagreement and writes nothing.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from tmln import cli  # noqa: E402
from tmln.inference import map_batch  # noqa: E402
from tmln.kbformat import parse  # noqa: E402
from tmln.kernel import Literal  # noqa: E402
from tmln.network import ground, weight_str  # noqa: E402
from tmln.oracle import brute_map, brute_weight  # noqa: E402

DATA = ROOT / "src" / "tmln" / "data"
KB_PATH = ROOT / ".bench_out" / "reference.tmln"


class Disagreement(Exception):
    pass


def cli_answer(case: W.Case) -> object:
    if case.kb_text is not None:
        KB_PATH.write_text(case.kb_text, encoding="utf-8")
    argv = [a.replace("{kb}", str(KB_PATH)).replace("{data}", str(DATA)) for a in case.argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise Disagreement(f"{case.key}: exit code {code}")
    return W.answer(json.loads(out.getvalue()))


def load(text: str):
    outcome = parse(text)
    if not outcome.ok:
        raise Disagreement(f"generated KB rejected: {outcome.diagnostics}")
    return outcome.tmln


def check_oresme(case: W.Case) -> object:
    golden = W.answer(json.loads((DATA / "table3_golden.json").read_text(encoding="utf-8")))
    if cli_answer(case) != golden:
        raise Disagreement("oresme sweep differs from table3_golden.json")
    return golden


def one_person_kb(text: str, person: str) -> str:
    """The KB restricted to one individual's facts (the rules are kept)."""
    keep = [
        line for line in text.splitlines()
        if not line.startswith("fact ") or f"({person}," in line
    ]
    return "\n".join(keep) + "\n"


def check_people(case: W.Case) -> object:
    M = load(case.kb_text)
    members = ground(M)
    rules = [wf for wf in members if not isinstance(wf.formula, Literal)]
    if {wf for wf in members if isinstance(wf.formula, Literal)} != set(M.facts):
        raise Disagreement(f"{case.key}: grounding changed the facts")
    people = sorted(str(wf.formula.conclusion.args[0]) for wf in rules)
    expected = sorted(f"P{i:02d}" for i in range(case.size) for _ in range(2))
    if people != expected:
        raise Disagreement(f"{case.key}: rule instances {people} instead of two per individual")
    rule_weight = {wf.formula.label: wf.weight for wf in M.rules}
    for wf in rules:
        person = str(wf.formula.conclusion.args[0])
        single = load(one_person_kb(case.kb_text, person))
        want = min(
            [rule_weight[wf.formula.label]]
            + [brute_weight(p, single) for p in wf.formula.premises]
        )
        if wf.weight != want:
            raise Disagreement(f"{case.key}: {wf} has weight {wf.weight}, oracle says {want}")
    rendered = sorted(
        [cli.formula_text(wf, M.timeline), weight_str(wf.weight)] for wf in members
    )
    if cli_answer(case) != rendered:
        raise Disagreement(f"{case.key}: ground --json differs from the checked instantiation")
    return rendered


def check_chain(kb_cases: list[W.Case]) -> dict[str, object]:
    M = load(kb_cases[0].kb_text)
    configs = [cli.semantics_from(*c.argv[3:8:2]) for c in kb_cases]
    exhaustive = map_batch(M, configs)
    answers = {}
    for case, tps, result in zip(kb_cases, configs, exhaustive):
        answers[case.key] = W.answer({"maps": cli.map_record(result, M, None)})
        if cli_answer(case) != answers[case.key]:
            raise Disagreement(f"{case.key}: pruned and exhaustive search disagree")
        states, best = brute_map(M, tps)
        if set(result.instantiations) != set(states) or abs(float(result.strength) - best) > 1e-9:
            raise Disagreement(f"{case.key}: search and oracle.brute_map disagree")
    return answers


def main() -> int:
    KB_PATH.parent.mkdir(exist_ok=True)
    references: dict[str, dict] = {}
    try:
        for name, workload in W.WORKLOADS.items():
            cases = workload.cases()
            answers = {}
            if name == "oresme-sweep":
                answers = {key: check_oresme(case) for key, case in cases.items()}
            elif name == "people-ground":
                answers = {key: check_people(case) for key, case in cases.items()}
            else:
                by_kb: dict[str, list[W.Case]] = {}
                for case in cases.values():
                    by_kb.setdefault(case.kb_text, []).append(case)
                for kb_cases in by_kb.values():
                    answers.update(check_chain(kb_cases))
            references[name] = {
                key: {
                    "answer": W.digest(answers[key]),
                    "kb": None if case.kb_text is None else W.digest(case.kb_text),
                    "size": case.size,
                }
                for key, case in cases.items()
            }
            print(f"{name}: {len(cases)} references checked", flush=True)
    except Disagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    W.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
