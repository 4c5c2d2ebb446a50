"""Workloads of the tmln benchmark: seeded KB generators, request lists, answers.

The generators write knowledge-base text with the standard library alone.
They import nothing from ``tmln`` (neither ``tmln.randgen`` nor the engine),
so a change to the engine cannot change the inputs.

Each workload draws its requests from a fixed pool of generated cases.  Every
case has a reference answer in ``references.json``, recorded by
``make_references.py`` after cross-checking it against the exhaustive search
and the brute-force oracle.  A run sends whole passes; ``--seed`` picks the
variant of each case a pass sends and the order, so the same seed always
gives the same inputs.  Every pass has the same mix of input sizes and
components, so runs with different seeds do the same amount of work and
their medians stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# people-ground: N individuals per KB, VARIANTS generated KBs per N.  A pass
# sends one KB of every size.
PEOPLE_SIZES = range(6, 19)
PEOPLE_VARIANTS = 4

# chain-pruned: CHAIN_KBS generated KBs, each crossed with every config.  A
# pass sends every KB with every selector and aggregator, under one of the
# two validators.
CHAIN_KBS = 8
CHAIN_VALIDATORS = ("tCon", "pInc")
CHAIN_SELECTORS = ("id", "thresh:0.25", "rule")
CHAIN_AGGREGATORS = ("sum", "sum_alpha:2", "psum")
CHAIN_CONFIGS = tuple(
    (d, s, t) for d in CHAIN_VALIDATORS for s in CHAIN_SELECTORS for t in CHAIN_AGGREGATORS
)

ORESME_QUERY = "PeasantFamily(*,*,*)"


# --- generators -------------------------------------------------------------

def _weight(rng: random.Random) -> str:
    """A decimal weight in (0, 1) with at most three fractional digits."""
    return f"0.{rng.randint(1, 999):03d}".rstrip("0")


def _interval(rng: random.Random, lo: int, hi: int, min_len: int, max_len: int) -> tuple[int, int]:
    length = rng.randint(min_len, max_len)
    start = rng.randint(lo, hi - length)
    return start, start + length


def people_kb(n: int, seed: int) -> str:
    """N independent individuals: four facts each (one negative), two chained rules.

    R1 derives ``Skilled`` from ``Person`` and ``Studied``; R2 derives
    ``Hired`` from ``Person``, ``Skilled`` and ``Worked``, so every individual
    contributes one instance of each rule and five premise support weights.
    """
    rng = random.Random(f"people/{n}/{seed}")
    lines = [
        f"# people-ground: N={n}, generator seed {seed}",
        "sort Agent",
        "timeline 0 100",
    ]
    names = [f"P{i:02d}" for i in range(n)]
    lines += [f"const {name} : Agent" for name in names]
    lines += [f"pred {p}(Agent)" for p in ("Person", "Studied", "Worked", "Skilled", "Hired")]
    for name in names:
        for sign, pred in (("", "Person"), ("", "Studied"), ("", "Worked"), ("!", "Hired")):
            a, b = _interval(rng, 0, 100, 5, 60)
            lines.append(f"fact {sign}{pred}({name}, {a}, {b}) : {_weight(rng)}")
    lines.append(
        f"rule R1 : {_weight(rng)} "
        "{ Person(x, t1, u1) & Studied(x, t2, u2) => Skilled(x, TMIN, TMAX) }"
    )
    lines.append(
        f"rule R2 : {_weight(rng)} "
        "{ Person(x, t1, u1) & Skilled(x, t2, u2) & Worked(x, t3, u3) => Hired(x, TMIN, TMAX) }"
    )
    return "\n".join(lines) + "\n"


def _chain(rng: random.Random, const: str, length: int, first_positive: bool) -> list[str]:
    """Alternating-polarity facts on one atom; neighbours' intervals overlap."""
    out = []
    start = rng.randint(0, 5)
    positive = first_positive
    for _ in range(length):
        end = start + rng.randint(8, 16)
        sign = "" if positive else "!"
        out.append(f"fact {sign}Holds({const}, {start}, {end}) : {_weight(rng)}")
        start = end - rng.randint(1, 5)
        positive = not positive
    return out


def _chain_sizes(seed: int) -> tuple[int, int]:
    # Sized so that every case stays within the oracle's |MI| <= 14 bound.
    rng = random.Random(f"chain-size/{seed}")
    main = rng.randint(9, 11)
    return main, rng.randint(3, 14 - main)


def chain_kb(seed: int) -> str:
    """Two independent alternating chains: a main one on A and a side one on B."""
    main, side = _chain_sizes(seed)
    rng = random.Random(f"chain/{seed}")
    lines = [
        f"# chain-pruned: main chain {main}, side chain {side}, generator seed {seed}",
        "sort Obj",
        "timeline 0 250",
        "const A : Obj",
        "const B : Obj",
        "pred Holds(Obj)",
    ]
    lines += _chain(rng, "A", main, rng.random() < 0.5)
    lines += _chain(rng, "B", side, rng.random() < 0.5)
    return "\n".join(lines) + "\n"


# --- cases and request order ----------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One request of a workload, with the key of its reference answer."""

    key: str
    argv: tuple[str, ...]  # tmln command line; "{kb}" stands for the KB file
    kb_text: str | None  # generated KB text, or None for the bundled example
    size: int  # N for people-ground, |MI| otherwise


class Workload:
    """A named pool of cases and the seeded order in which a run sends them."""

    name = ""

    def cases(self) -> dict[str, Case]:
        raise NotImplementedError

    def plan(self, rng: random.Random) -> list[str]:
        """Case keys of one pass, in the order they are sent."""
        raise NotImplementedError

    def passes(self, seed: int):
        """The endless sequence of passes of a run with this seed."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield self.plan(rng)


class OresmeSweep(Workload):
    name = "oresme-sweep"

    def cases(self) -> dict[str, Case]:
        argv = (
            "sweep", "{data}/oresme.tmln", "{data}/table3.sweep",
            "--query", ORESME_QUERY, "--json",
        )
        return {"table3": Case("table3", argv, None, 9)}

    def plan(self, rng):
        return ["table3"]


class PeopleGround(Workload):
    name = "people-ground"

    def cases(self) -> dict[str, Case]:
        out = {}
        for n in PEOPLE_SIZES:
            for v in range(PEOPLE_VARIANTS):
                key = f"N{n}-v{v}"
                out[key] = Case(key, ("ground", "{kb}", "--json"), people_kb(n, v), n)
        return out

    def plan(self, rng):
        keys = [f"N{n}-v{rng.randrange(PEOPLE_VARIANTS)}" for n in PEOPLE_SIZES]
        rng.shuffle(keys)
        return keys


class ChainPruned(Workload):
    name = "chain-pruned"

    def cases(self) -> dict[str, Case]:
        out = {}
        for k in range(CHAIN_KBS):
            text = chain_kb(k)
            size = sum(_chain_sizes(k))
            for delta, sigma, theta in CHAIN_CONFIGS:
                key = f"kb{k:02d}-{delta}-{sigma}-{theta}"
                argv = (
                    "map", "{kb}", "--delta", delta, "--sigma", sigma,
                    "--theta", theta, "--pruned", "--json",
                )
                out[key] = Case(key, argv, text, size)
        return out

    def plan(self, rng):
        keys = [
            f"kb{k:02d}-{rng.choice(CHAIN_VALIDATORS)}-{sigma}-{theta}"
            for k in range(CHAIN_KBS)
            for sigma in CHAIN_SELECTORS
            for theta in CHAIN_AGGREGATORS
        ]
        rng.shuffle(keys)
        return keys


WORKLOADS = {w.name: w for w in (OresmeSweep(), PeopleGround(), ChainPruned())}


# --- semantic answers -------------------------------------------------------------

def _map_answer(maps: list[dict]) -> dict:
    """Strength, optimal states as sets of formula texts, conclusions with weights."""
    states = sorted(
        [
            sorted(f["text"] for f in m["formulae"]),
            sorted([c["literal"], c["weight"]] for c in m["conclusions"]),
        ]
        for m in maps
    )
    return {"strength": maps[0]["strength"] if maps else None, "states": states}


def answer(payload: dict) -> object:
    """The semantic content of a ``--json`` output, independent of its layout."""
    if "instantiation" in payload:
        return sorted([f["text"], f["weight"]] for f in payload["instantiation"])
    if "rows" in payload:
        return {
            " ".join(row["config"][k] for k in ("delta", "sigma", "theta")): _map_answer(row["maps"])
            for row in payload["rows"]
        }
    return _map_answer(payload["maps"])


def digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))
