"""Span tracing of tmln's public functions, from outside the package.

``Tracer.install()`` replaces each traced function by a wrapper that records
one span per call: layer name, start, end, parent span and request id.  A
function imported by name into another module is rebound there too (for
example ``closure_literals`` lives in ``kernel`` but is called through
``network``, ``inference``, ``semantics`` and ``temporal``), and
``Aggregator.__call__`` is wrapped on the class.  ``uninstall()`` puts the
originals back.

Spans are kept in flat arrays while the run lasts and written out at the
end.  A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap and
their sum is exactly the part of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# Layer name -> (module, attribute path) of every public function it covers.
LAYERS = {
    "cli.render": [("tmln.cli", "main")],
    "kbformat.parse": [("tmln.kbformat", "parse")],
    "network.ground": [("tmln.network", "ground")],
    "network.weight_of": [("tmln.network", "weight_of")],
    "kernel.closure": [("tmln.kernel", "derive_closure"), ("tmln.kernel", "closure_literals")],
    "kernel.match_premises": [("tmln.kernel", "match_premises")],
    "semantics.aggregate": [("tmln.semantics", "Aggregator.__call__")],
    "inference.search": [
        ("tmln.inference", "map_batch"),
        ("tmln.inference", "map_pruned"),
        ("tmln.inference", "map_exhaustive"),
    ],
    "inference.conclusions": [("tmln.inference", "conclusions")],
}


class Tracer:
    """Records nested spans of the wrapped functions.

    Each top-level span (a ``cli.main`` call) starts a new request id.
    """

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.request = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        # Observations made at layer boundaries, per request.
        self.ground_sizes: list[int] = []
        self.weight_targets: dict[int, set] = defaultdict(set)
        self.search_subsets = 0  # sum over search calls of 2^|MI| x configs

    # --- recording -----------------------------------------------------------

    def _open(self, layer: int) -> int:
        idx = len(self.span_start)
        if not self._stack:
            self.request += 1
        self.span_layer.append(layer)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer_name: str, attr: str, fn):
        layer = self.layer_id[layer_name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grounds = len(tracer.ground_sizes)
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._observe(attr, args, result, grounds)
            return result

        return wrapper

    def _observe(self, attr: str, args: tuple, result, grounds: int) -> None:
        """Counts taken at layer boundaries, for the ratio metrics."""
        if attr == "ground":
            self.ground_sizes.append(len(result))
        elif attr == "weight_of":
            self.weight_targets[self.request].add(args[0])
        elif attr in ("map_batch", "map_pruned") and len(self.ground_sizes) > grounds:
            configs = len(args[1]) if attr == "map_batch" else 1
            self.search_subsets += (1 << self.ground_sizes[grounds]) * configs

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever it was imported."""
        importlib.import_module("tmln.cli")
        modules = [m for name, m in sys.modules.items() if name == "tmln" or name.startswith("tmln.")]
        for layer_name, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                attr = path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                wrapped = self._wrap(layer_name, attr, original)
                self._rebind(owner, attr, original, wrapped)
                if owner is sys.modules[module_name]:
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, name, original, wrapped)

    def _rebind(self, owner, name: str, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._originals.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[int]]:
        """Per-layer self seconds and layer entries over all recorded spans.

        An entry is a span whose parent belongs to another layer, so
        ``closure_literals`` calling ``derive_closure`` counts as one call.
        """
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_s = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        for i in range(n):
            layer = self.span_layer[i]
            self_s[layer] += self.span_end[i] - self.span_start[i] - child[i]
            p = self.span_parent[i]
            if p < 0 or self.span_layer[p] != layer:
                calls[layer] += 1
        return self_s, calls

    def root_time(self) -> float:
        """Total duration of the top-level spans (the traced requests)."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )

    def write(self, path: Path) -> None:
        """One tab-separated line per span: layer, start, end, parent, request."""
        with path.open("w", encoding="utf-8") as out:
            out.write("layer\tstart\tend\tparent\trequest\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{self.layers[self.span_layer[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_request[i]}\n"
                )
