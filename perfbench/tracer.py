"""Outside-in span tracing of specbound's public functions.

The library imports its functions by name (``pathsim`` holds its own
``perron``, ``report`` its own ``full_spectrum``, ``rng`` its own
``is_connected``), so patching one module is not enough: :class:`Tracer`
replaces each traced function at every module attribute that binds it, and
puts every original back on :meth:`Tracer.uninstall`.  Nothing inside the
library changes, and only the traced worker imports this module.

Each call becomes a span ``(name, parent, start, end, op)`` kept in memory.
A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches the class attribute.
TRACED = (
    ("specbound.cli", "main", "cli.main"),
    ("specbound.graphs", "parse_edge_list", "graphs.parse"),
    ("specbound.graphs", "parse_perturbation_spec", "graphs.parse"),
    ("specbound.graphs", "Graph.adjacency", "graphs.adjacency"),
    ("specbound.graphs", "is_connected", "graphs.is_connected"),
    ("specbound.graphs", "is_cone_over_regular", "graphs.recognize"),
    ("specbound.graphs", "is_double_cone_over_regular", "graphs.recognize"),
    ("specbound.spectral", "perron", "spectral.perron"),
    ("specbound.spectral", "full_spectrum", "spectral.full_spectrum"),
    ("specbound.spectral", "connected_components", "spectral.connected_components"),
    ("specbound.bounds", "perturbation_bound", "bounds.bound"),
    ("specbound.report", "bound_report", "report.bound_report"),
    ("specbound.pathsim", "sample_path", "pathsim.sample_path"),
    ("specbound.pathsim", "comparison_curve", "pathsim.comparison_curve"),
    ("specbound.pathsim", "check_differential_inequality", "pathsim.inequality"),
    ("specbound.rng", "random_instance", "rng.random_instance"),
    ("specbound.verify", "run_verification", "verify.run_verification"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1  # index of the op the next spans belong to
        self.perron_iterations = 0
        self.draws = 0  # connectivity tests of Erdos-Renyi draws in rng
        self.connected_draws = 0
        self.missing: list[str] = []  # traced names the library no longer has
        self._stack: list[int] = []
        self._restore: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "specbound" or name.startswith("specbound."))]
        for module_name, attr, span in TRACED:
            home = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, original)
            if owner_name:  # a method: one binding, on the class
                self._patch(owner, method, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, span: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((span, parent, 0.0, 0.0, self.op))  # completed on return
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, parent, start, end, self.op)
            self._count(span, parent, result)
            return result

        return traced

    def _count(self, span: str, parent: int, result) -> None:
        if span == "spectral.perron":
            self.perron_iterations += getattr(result, "iterations", 0)
        elif span == "graphs.is_connected" and parent >= 0 and self.spans[parent][0] == "rng.random_instance":
            self.draws += 1
            self.connected_draws += bool(result)

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        return calls, self_s

    def metrics(self, names) -> dict[str, float]:
        """Values of the per-layer metrics ``names`` (see layers.json)."""
        calls, self_s = self.layer_totals()
        derived = {
            "spectral.perron.iterations": self.perron_iterations,
            "spectral.perron.iters_per_call": (
                self.perron_iterations / calls["spectral.perron"] if calls.get("spectral.perron") else 0.0
            ),
            "rng.connect_accept_ratio": self.connected_draws / self.draws if self.draws else 0.0,
        }
        out = {}
        for name in names:
            layer, _, field = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif field == "calls":
                out[name] = calls.get(layer, 0)
            elif field == "self_s":
                out[name] = self_s.get(layer, 0.0)
            else:
                raise KeyError(f"no tracer metric named {name!r}")
        return out

    def dump(self, path: str) -> None:
        """Write the spans out, one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "parent", "start", "end", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
