"""Spans around the package's public functions, installed from outside.

``install`` replaces each function listed in ``LAYERS`` by a wrapper in
every ``vacuum_refine`` module that holds it, so a name re-bound by
``from .x import f`` is caught on every call path.  Each wrapper records a
span (name, start, end, parent) in flat arrays that stay in memory until
``write_spans`` runs at the end of the benchmark, and adds the span's
duration, minus that of its child spans, to the function's self time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Layer name (a package module) -> the public functions traced in it.
LAYERS = {
    "config": ("load_config", "build_model"),
    "hamiltonian": ("to_matrix", "exact_diagonalize", "evolution_unitary", "interpolate"),
    "adiabatic": ("evolve_step", "run_adiabatic", "run_hold"),
    "statevector": (
        "apply_gate",
        "apply_controlled",
        "apply_pauli_string",
        "expectation_observable",
        "measure_sample",
        "postselect",
    ),
    "estimation": ("shot_expectation", "eigen_overlaps", "cross_term"),
    "filtering": ("apply_filter", "controlled_u_power", "tag_circuit_one_qubit", "refine_iteratively"),
}
# The command itself, called by the benchmark; its self time is the glue
# in ``experiments`` (CSV formatting and writing, manifest, estimators).
COMMAND_SPAN = "experiments.cmd"


def _observe_to_matrix(tracer, args, kwargs, result):
    tracer.counts["hamiltonian.dense_bytes"] += result.nbytes


def _observe_exact_diagonalize(tracer, args, kwargs, result):
    tracer.counts["hamiltonian.eig_dim3"] += result.dim**3
    operator = args[0] if args else kwargs["h"]
    tracer.distinct.add((operator.num_qubits, operator.terms))


def _observe_shot_expectation(tracer, args, kwargs, result):
    tracer.counts["estimation.shots_drawn"] += result.shots


def _observe_apply_filter(tracer, args, kwargs, result):
    tracer.counts["filtering.postselect_attempts"] += 1
    tracer.counts["filtering.postselect_p_sum"] += result.success_probability


def _observe_refine_iteratively(tracer, args, kwargs, result):
    tracer.counts["filtering.passes"] += len(result.steps)


_OBSERVERS = {
    "hamiltonian.to_matrix": _observe_to_matrix,
    "hamiltonian.exact_diagonalize": _observe_exact_diagonalize,
    "estimation.shot_expectation": _observe_shot_expectation,
    "filtering.apply_filter": _observe_apply_filter,
    "filtering.refine_iteratively": _observe_refine_iteratively,
}


class Tracer:
    """Records spans and per-invocation call counts, self and total times."""

    def __init__(self):
        self.names = [COMMAND_SPAN] + [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._reset()

    def _reset(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.distinct: set = set()  # operators diagonalized, by content

    def wrap(self, name: str, fn):
        index = self.names.index(name)
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(index)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self._stack.append([span, 0.0])
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, covered = self._stack.pop()
                self.end[span] = end
                duration = end - self.start[span]
                self.calls[index] += 1
                self.self_s[index] += duration - covered
                self.total_s[index] += duration
                if self._stack:
                    self._stack[-1][1] += duration
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def take(self) -> dict[str, float]:
        """Per-layer figures since the last call, then start a new invocation."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.s"] = self.total_s[i]
        counts = self.counts
        for key in ("hamiltonian.dense_bytes", "hamiltonian.eig_dim3", "estimation.shots_drawn", "filtering.passes"):
            out[key] = counts[key]
        diags = out["hamiltonian.exact_diagonalize.calls"]
        steps = out["adiabatic.evolve_step.calls"]
        attempts = counts["filtering.postselect_attempts"]
        # A ratio whose base is zero (no work of that kind) reads 0.
        out["hamiltonian.diag_distinct_frac"] = len(self.distinct) / diags if diags else 0.0
        out["adiabatic.diag_per_step"] = diags / steps if steps else 0.0
        out["filtering.postselect_p_mean"] = (
            counts["filtering.postselect_p_sum"] / attempts if attempts else 0.0
        )
        out["experiments.self_s"] = out[f"{COMMAND_SPAN}.self_s"]
        self._reset()
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function wherever the package binds it.

    Returns the replaced bindings for ``uninstall``.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "vacuum_refine"]
    replaced = []
    for layer, functions in LAYERS.items():
        home = sys.modules[f"vacuum_refine.{layer}"]
        for fname in functions:
            original = getattr(home, fname)
            traced = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        replaced.append((module, attr, original))
    return replaced


def uninstall(replaced: list[tuple[object, str, object]]) -> None:
    for module, attr, original in replaced:
        setattr(module, attr, original)
