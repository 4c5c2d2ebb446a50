"""The tmln benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Each request is one in-process call of ``tmln.cli.main(argv)`` on
KB text the benchmark generated; the next request goes only after the
previous one has returned.  Every answer is compared, by its semantic
content, with the reference recorded in ``references.json``.

With ``--trace 0`` the run sends whole passes of its workload (see
``workloads.py``) until ``--seconds`` seconds of request time are spent,
after a warm-up that is not timed.  With ``--trace 1`` it sends requests
untraced for half of ``--seconds``, then replays the same requests with every
public layer function wrapped (see ``tracing.py``) and reports per-layer
self times and counts per request.  The last line of standard output is one
JSON object with the metrics; request records and spans go to
``.bench_out/``.

Request times are reported in reference milliseconds (``ref_ms``).  The
host this benchmark was built on changes speed by up to 1.9x within a
minute, because other tenants share its cores, so raw wall times of two
runs of the same code differ by 20-40%.  A fixed pure-Python job
(``reference_work``) is timed before and after every request; a request's
``ref_ms`` is its wall time scaled by REFERENCE_SECONDS over the median of
the six job times nearest to it (one job time alone is too noisy), i.e. its
wall time on a host where the job takes exactly REFERENCE_SECONDS.
``setup_s`` is scaled the same way, by the six job times before each set-up
probe; the probes are spread over the timed loop.  Raw wall times are
printed and recorded alongside.  ``peak_rss_mb`` is raw.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

# Candidate tail percentiles, highest first.  The reported tail is the first
# that leaves at least TAIL_BEYOND samples above it.  The gaps are wide, and
# a timed loop sends at least MIN_REQUESTS, so that every run of a workload
# picks the same percentile (p90 for all three on a 25 s run).
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
MIN_REQUESTS = 100
SETUP_RUNS = 15
WARMUP_S = 1.0
REFERENCE_ATOMS = 800
REFERENCE_SECONDS = 2.5e-3

SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import tmln.cli\n"
    "print(time.perf_counter() - t)\n"
)


def setup_probe() -> float:
    """Time of ``import tmln.cli`` in a fresh interpreter; every CLI invocation pays it."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


@dataclass(frozen=True)
class _Atom:
    predicate: str
    args: tuple


def reference_work() -> float:
    """Wall time of a fixed pure-Python job: the host's speed at this moment.

    The job builds, indexes and pairs small frozen objects, the kind of work
    the engine does, but calls no engine code, so an engine change cannot
    move it.
    """
    start = time.perf_counter()
    atoms = [_Atom("P" if i & 1 else "Q", (i % 61, i % 7)) for i in range(REFERENCE_ATOMS)]
    index: dict[tuple, list[_Atom]] = {}
    for atom in atoms:
        index.setdefault((atom.predicate, atom.args[1]), []).append(atom)
    pairs = set()
    for atom in atoms:
        for other in index[("Q", atom.args[1])][:3]:
            pairs.add(frozenset((atom, other)))
    return time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with enough samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


class Bench:
    """Sends the requests of one workload and checks every answer."""

    def __init__(self, workload: W.Workload, references: dict):
        self.workload = workload
        self.cases = workload.cases()
        self.references = references
        missing = sorted(set(self.cases) - set(references))
        if missing:
            raise SystemExit(f"no reference for {len(missing)} cases, e.g. {missing[0]}")
        kb_dir = OUT / "kb" / workload.name
        kb_dir.mkdir(parents=True, exist_ok=True)
        data = SRC / "tmln" / "data"
        self.argv: dict[str, list[str]] = {}
        written: dict[str, Path] = {}
        for key, case in self.cases.items():
            path = None
            if case.kb_text is not None:
                kb_digest = W.digest(case.kb_text)
                if kb_digest != references[key]["kb"]:
                    raise SystemExit(f"{key}: generated KB differs from the one referenced")
                path = written.get(kb_digest)
                if path is None:
                    path = kb_dir / f"{kb_digest[:16]}.tmln"
                    path.write_text(case.kb_text, encoding="utf-8")
                    written[kb_digest] = path
            self.argv[key] = [
                a.replace("{kb}", str(path)).replace("{data}", str(data)) for a in case.argv
            ]
        self.cli = importlib.import_module("tmln.cli")
        self.records: list[dict] = []
        self.failures = 0

    def request(self, key: str, phase: str) -> float:
        """Send one request; return its wall time and record whether it was right."""
        out, err = io.StringIO(), io.StringIO()
        code, problem = None, None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(self.argv[key])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raised request is a failed request, not a crash
            problem = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        if problem is None:
            problem = self.check(key, code, out.getvalue())
        if problem is not None:
            self.failures += 1
            if self.failures <= 3:
                print(f"FAILED {key}: {problem}; stderr: {err.getvalue()[-300:]!r}", file=sys.stderr)
        self.records.append({
            "phase": phase,
            "key": key,
            "size": self.cases[key].size,
            "ms": elapsed * 1e3,
            "ok": problem is None,
        })
        return elapsed

    def check(self, key: str, code, stdout: str):
        if code != 0:
            return f"exit code {code}"
        try:
            got = W.digest(W.answer(json.loads(stdout)))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({exc.__class__.__name__})"
        if got != self.references[key]["answer"]:
            return "answer differs from the reference"
        return None

    def loop(self, passes, seconds: float, phase: str, between=None, least=1):
        """Closed loop over whole passes until ``seconds`` of request time are spent
        and at least ``least`` requests are sent.

        Returns the keys sent, their wall times and their reference times
        (see the module docstring), all in seconds.  ``between`` is called
        after each request, untimed, with the request time spent so far and
        the reference job times measured so far.
        """
        sent, wall = [], []
        speed = [reference_work()]  # speed[i] and speed[i + 1] bracket request i
        while len(wall) < least or sum(wall) < seconds:
            for key in next(passes):
                wall.append(self.request(key, phase))
                speed.append(reference_work())
                sent.append(key)
                if between is not None:
                    between(sum(wall), speed)
        ref = []
        for i, (elapsed, record) in enumerate(zip(wall, self.records[-len(wall):])):
            ref.append(elapsed * REFERENCE_SECONDS / statistics.median(speed[max(0, i - 2) : i + 4]))
            record["ref_ms"] = ref[-1] * 1e3
        return sent, wall, ref


def end_to_end(bench: Bench, passes, seconds: float) -> dict:
    setup_probe()  # fills the bytecode cache, as an installed package has it
    setup, setup_wall = [], []

    def probe(busy: float, speed: list[float]) -> None:
        if busy >= len(setup) * seconds / SETUP_RUNS:
            setup_wall.append(setup_probe())
            setup.append(setup_wall[-1] * REFERENCE_SECONDS / statistics.median(speed[-6:]))

    _, wall, ref = bench.loop(passes, seconds, "timed", between=probe, least=MIN_REQUESTS)
    n = len(ref)
    p, tail_ref = tail(ref)
    print(f"requests timed: {n}; tail percentile: p{p:g}")
    print(f"  wall: throughput {n / sum(wall):.6g}/s, p50 {statistics.median(wall) * 1e3:.6g} ms, "
          f"p{p:g} {tail(wall)[1] * 1e3:.6g} ms, setup {statistics.median(setup_wall):.6g} s")
    return {
        "throughput_ref_rps": (n / sum(ref), "1/ref_s"),
        "latency_p50_ref_ms": (statistics.median(ref) * 1e3, "ref_ms"),
        "latency_tail_ref_ms": (tail_ref * 1e3, "ref_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(bench: Bench, passes, seconds: float, spans_path: Path) -> dict:
    sent, _, plain = bench.loop(passes, seconds / 2, "untraced")
    tracer = Tracer()
    with tracer:
        _, _, traced = bench.loop(iter([sent]), 0.0, "traced")
    n = len(sent)
    self_s, calls = tracer.self_times()
    layer = dict(zip(tracer.layers, zip(self_s, calls)))
    metrics = {}
    for name, (seconds_, count) in layer.items():
        metrics[f"{name}.self_s"] = (seconds_ / n, "s")
        if name != "cli.render":
            metrics[f"{name}.calls"] = (count / n, "count")
    sizes = tracer.ground_sizes
    metrics["network.instantiation_size"] = (sum(sizes) / len(sizes) if sizes else 0.0, "count")
    distinct = sum(len(t) for t in tracer.weight_targets.values())
    weight_calls = layer["network.weight_of"][1]
    metrics["network.weight_of.repeat_ratio"] = (weight_calls / distinct if distinct else 0.0, "ratio")
    aggregate_calls = layer["semantics.aggregate"][1]
    metrics["inference.search.explored_ratio"] = (
        aggregate_calls / tracer.search_subsets if tracer.search_subsets else 0.0, "ratio"
    )
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")

    total = sum(self_s)
    print(f"requests traced: {n}; traced request time {tracer.root_time():.6f} s, "
          f"sum of layer self times {total:.6f} s")
    for name, (seconds_, count) in sorted(layer.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:24s} {100 * seconds_ / total:5.1f}%  calls {count}")
    for group in (("network", "kernel"), ("inference", "semantics")):
        share = sum(s for name, (s, _) in layer.items() if name.startswith(group)) / total
        print(f"  share {' + '.join(group)}: {100 * share:.1f}%")
    tracer.write(spans_path)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tmln" / "cli.py").is_file():
        print(f"error: no tmln sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = W.WORKLOADS[args.workload]
    bench = Bench(workload, W.load_references()[workload.name])
    passes = workload.passes(args.seed)

    busy = 0.0
    for key in next(passes):  # warm-up, not timed
        busy += bench.request(key, "warmup")
        if busy >= WARMUP_S:
            break

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer(bench, passes, args.seconds, OUT / f"{stem}.spans.tsv")
    else:
        metrics = end_to_end(bench, passes, args.seconds)
    with (OUT / f"{stem}.requests.jsonl").open("w", encoding="utf-8") as out:
        for record in bench.records:
            out.write(json.dumps(record) + "\n")

    attempted = len(bench.records)
    print(f"workload {workload.name}: closed loop, one client; seed {args.seed}; "
          f"attempted {attempted}, failed {bench.failures}, "
          f"failed_ratio {bench.failures / attempted:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failures == 0,
        "attempted": attempted,
        "failed": bench.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
