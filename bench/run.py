"""Benchmark of the vacuum-refine commands, end to end and per module.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 bench/run.py --workload chain-sweep --seed 1 --seconds 30 --trace 0

Workloads, inputs and output checks live in ``workloads.py``.  A run
generates its inputs from ``--seed`` under ``bench/.work/<workload>/``,
makes one untimed warm-up invocation, then measures for ``--seconds``
seconds: a closed loop of in-process invocations (one process, one
invocation at a time), with the fresh-process measurements spread evenly
through the same window so that every metric samples all of it.

``--trace 0`` reports the end-to-end metrics:

    cmd_s        wall time of the fastest warm in-process command invocation,
                 from the config object to every output file and manifest
    setup_s      median over fresh interpreters of import, load_config,
                 build_model and the first diagonalization of the model
                 (which pays the lazy BLAS set-up)
    cli_s        wall time of the fastest CLI command in a fresh process
    peak_rss_mb  peak resident memory of the process that ran the loop

The median and tail of ``cmd_s`` are printed beside it.  On a shared host
whose speed drifts for seconds to minutes at a time, the median of a run
moves with the share of the window that ran slow, while the fastest
invocation, which interference can only lengthen, stays close to the cost
of the code itself; so cmd_s and cli_s report the minimum.  Failed
invocations over attempted ones (failed_frac) are printed and carried by
the ``failed`` and ``attempted`` keys of the result.

``--trace 1`` alternates untraced and traced invocations of each config,
the latter with spans around the package's public functions
(``tracing.py``), and reports per-layer counts and self times, the tracing
overhead, and the ratio of single- to default-thread BLAS time from a
child run with ``OPENBLAS_NUM_THREADS=1`` made halfway through the
window.  Spans go to ``bench/.work/<workload>/spans.csv``.

Every invocation's outputs are checked outside the timed region, and must
be byte-identical to the first invocation of the same config, traced,
untraced or from the CLI.  The lines before the last print every metric by
name with its unit and the machine record; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("bench") / ".work"
CHILD_TIMEOUT_S = 60
MIN_TIMED_INVOCATIONS = 3
SETUP_RUNS = 9
TAIL_PERCENTILES = (99, 95, 90, 75)
TAIL_BEYOND = 10
MAX_PROBLEMS_KEPT = 5

COMMAND_FUNCTIONS = {"sweep": "cmd_sweep", "filter-run": "cmd_filter_run", "refine": "cmd_refine"}

END_TO_END = {"cmd_s": "s", "setup_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}

_FUNCTION_CALLS = [
    "hamiltonian.to_matrix",
    "hamiltonian.exact_diagonalize",
    "hamiltonian.evolution_unitary",
    "hamiltonian.interpolate",
    "adiabatic.evolve_step",
    "statevector.apply_gate",
    "statevector.apply_controlled",
    "statevector.apply_pauli_string",
    "statevector.expectation_observable",
    "statevector.measure_sample",
    "statevector.postselect",
    "estimation.shot_expectation",
    "estimation.eigen_overlaps",
    "estimation.cross_term",
    "filtering.apply_filter",
    "filtering.controlled_u_power",
    "filtering.tag_circuit_one_qubit",
]
# Figures that must repeat exactly between invocations of one config.
COUNTS = {f"{name}.calls": "count" for name in _FUNCTION_CALLS} | {
    "hamiltonian.dense_bytes": "B",
    "hamiltonian.eig_dim3": "count",
    "hamiltonian.diag_distinct_frac": "ratio",
    "adiabatic.diag_per_step": "ratio",
    "estimation.shots_drawn": "count",
    "filtering.passes": "count",
    "filtering.postselect_p_mean": "ratio",
    "experiments.output_bytes": "B",
}
# Times of layers that every workload enters, as medians per invocation.
TIMES = {
    "hamiltonian.to_matrix.self_s": "s",
    "hamiltonian.exact_diagonalize.self_s": "s",
    "hamiltonian.evolution_unitary.self_s": "s",
    "hamiltonian.interpolate.self_s": "s",
    "adiabatic.evolve_step.self_s": "s",
    "adiabatic.run_adiabatic.s": "s",
    "statevector.apply_gate.self_s": "s",
    "statevector.apply_pauli_string.self_s": "s",
    "statevector.expectation_observable.self_s": "s",
    "experiments.self_s": "s",
    "config.load_config.s": "s",
    "config.build_model.s": "s",
}
PER_LAYER = COUNTS | TIMES | {"hamiltonian.blas_speedup": "ratio", "tracing.overhead": "ratio"}
# Times of layers that some workload never enters.  A time that is zero by
# construction on every run is not a measurement, so these are printed and
# kept in the result file but left out of the JSON metrics.
PRINTED_TIMES = [
    "adiabatic.run_hold.s",
    "statevector.apply_controlled.self_s",
    "statevector.measure_sample.self_s",
    "statevector.postselect.self_s",
    "estimation.shot_expectation.self_s",
    "estimation.eigen_overlaps.self_s",
    "estimation.cross_term.self_s",
    "filtering.apply_filter.self_s",
    "filtering.controlled_u_power.self_s",
    "filtering.tag_circuit_one_qubit.self_s",
    "filtering.refine_iteratively.s",
]

SETUP_PROBE = (
    "import sys; import vacuum_refine as vr; "
    "vr.exact_diagonalize(vr.build_model(vr.load_config(sys.argv[1])))"
)


class Run:
    """Invocations of one workload and the checks on what they wrote."""

    def __init__(self, workload, cases, vr, seed: int):
        self.workload = workload
        self.cases = cases
        self.vr = vr
        self.seed = seed
        self.command = getattr(vr, COMMAND_FUNCTIONS[workload.command])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, dict[str, bytes]] = {}
        self.counts: dict[int, dict[str, float]] = {}

    def problem(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS_KEPT:
            self.problems.append(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problem(message)

    def verify(self, index: int, prefix: str, summary: dict | None, label: str) -> dict | None:
        """Check what one invocation wrote; returns the data files by suffix, or None."""
        try:
            files = read_outputs(prefix)
            self.workload.check(self.cases[index], files, summary)
            reference = self.reference.setdefault(index, files)
            differing = set(files) ^ set(reference) | {s for s in files if files[s] != reference.get(s)}
            if differing:
                raise CheckFailed(f"{', '.join(sorted(differing))} differ from the first invocation")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(f"{label} (case {index}): {exc}")
            return None
        return files

    def invoke(self, index: int, command=None, label: str = "timed"):
        """One in-process invocation; returns (seconds, data files) or None if it failed."""
        case = self.cases[index]
        self.attempted += 1
        try:
            config = self.vr.load_config(case.config_path)
            start = perf_counter()
            result = (command or self.command)(config)
            elapsed = perf_counter() - start
        except Exception as exc:  # any failure of the program counts against it
            self.fail(f"{label} (case {index}): {type(exc).__name__}: {exc}")
            return None
        files = self.verify(index, case.prefix, result.summary, label)
        return None if files is None else (elapsed, files)

    def timed(self, index: int) -> float | None:
        outcome = self.invoke(index)
        return None if outcome is None else outcome[0]

    def setup_probe(self) -> float | None:
        elapsed, proc = timed_child([sys.executable, "-c", SETUP_PROBE, self.cases[0].config_path])
        if proc.returncode != 0:
            self.problem(f"setup exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        return elapsed

    def cli_probe(self) -> float | None:
        case = self.cases[0]
        prefix = str(Path(case.prefix).parent.parent / "cli" / Path(case.prefix).name)
        self.attempted += 1
        elapsed, proc = timed_child(
            [
                sys.executable, "-m", "vacuum_refine.cli", self.workload.command,
                "--config", case.config_path, "--seed", str(self.seed), "--out", prefix,
            ]
        )
        if proc.returncode != 0:
            self.fail(f"CLI exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        return elapsed if self.verify(0, prefix, None, "cli") is not None else None

    def check_counts(self, index: int, figures: dict[str, float]) -> None:
        counts = {key: figures[key] for key in COUNTS}
        first = self.counts.setdefault(index, counts)
        moved = [key for key in COUNTS if counts[key] != first[key]]
        if moved:
            self.problem(f"case {index}: counts changed between invocations: {', '.join(moved)}")

    def count_mean(self, key: str) -> float:
        return statistics.fmean(self.counts[i][key] for i in sorted(self.counts))


class TracedInvoker:
    """Invokes the command with spans installed, keeping each invocation's figures."""

    def __init__(self, run: Run):
        self.run = run
        self.tracer = tracing.Tracer()
        self.command = self.tracer.wrap(tracing.COMMAND_SPAN, run.command)
        self.layers: list[dict[str, float]] = []

    def __call__(self, index: int) -> float | None:
        replaced = tracing.install(self.tracer)
        try:
            outcome = self.run.invoke(index, self.command, "traced")
        finally:
            tracing.uninstall(replaced)
        figures = self.tracer.take()
        if outcome is None:
            return None
        elapsed, files = outcome
        figures["experiments.output_bytes"] = sum(len(b) for b in files.values())
        self.run.check_counts(index, figures)
        self.layers.append(figures)
        return elapsed

    def median(self, key: str) -> float:
        return statistics.median(f[key] for f in self.layers)


def window(run: Run, seconds: float, invokers: dict, probes: dict | None = None) -> dict[str, list[float]]:
    """Measure for ``seconds``; returns the samples of each invoker and probe.

    Each round calls every invoker on the same case, and rounds cycle
    through the cases.  The calls of each probe are spread evenly over the
    window; any still pending at the deadline run before it returns.
    """
    start = perf_counter()
    schedule = sorted(
        (
            ((i + 0.5) / count * seconds, name, probe)
            for name, (probe, count) in (probes or {}).items()
            for i in range(count)
        ),
        key=lambda item: item[0],
    )
    samples: dict[str, list[float]] = defaultdict(list)

    def record(name: str, value: float | None) -> None:
        if value is not None:
            samples[name].append(value)

    need = max(MIN_TIMED_INVOCATIONS, len(run.cases))
    rounds = 0
    while True:
        now = perf_counter() - start
        if schedule and now >= schedule[0][0]:
            _, name, probe = schedule.pop(0)
            record(name, probe())
            continue
        if now >= seconds and (all(len(samples[n]) >= need for n in invokers) or rounds >= 10 * need):
            return samples
        for name, invoke in invokers.items():
            record(name, invoke(rounds % len(run.cases)))
        rounds += 1


def read_outputs(prefix: str) -> dict[str, bytes]:
    """The data files written under ``prefix``, by suffix; the manifest must parse."""
    directory, stem = os.path.split(prefix)
    files = {p.name[len(stem):]: p.read_bytes() for p in Path(directory).glob(f"{stem}_*")}
    manifest = files.pop("_manifest.json", None)
    if manifest is None:
        raise CheckFailed("no manifest written")
    json.loads(manifest)
    return files


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, **extra)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(argv: list[str], env: dict[str, str] | None = None):
    start = perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env or child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        proc = subprocess.CompletedProcess(argv, -1, "", f"timed out after {CHILD_TIMEOUT_S} s")
    return perf_counter() - start, proc


def blas_threads() -> int | str:
    """Threads OpenBLAS is using in this process, asked of the loaded library."""
    import numpy

    pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return "unknown"


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            sizes[f"l{level}"] = size
    return sizes


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        **cache_sizes(),
    }


def tail(times: list[float]) -> tuple[int, float] | None:
    """The highest listed percentile with at least ten invocations beyond it."""
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def run_end_to_end(run: Run, args, lines: list[str]) -> dict[str, float]:
    run.invoke(0, label="warm-up")
    samples = window(
        run,
        args.seconds,
        {"cmd_s": run.timed},
        {"setup_s": (run.setup_probe, SETUP_RUNS), "cli_s": (run.cli_probe, run.workload.cli_runs)},
    )
    metrics = {key: min(values) for key, values in samples.items() if values}
    if samples["setup_s"]:
        metrics["setup_s"] = statistics.median(samples["setup_s"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = samples["cmd_s"]
    if times:
        lines.append(f"cmd_s.median = {statistics.median(times)!r} s (n={len(times)})")
    found = tail(times)
    if found:
        lines.append(f"cmd_s.tail p{found[0]} = {found[1]!r} s (n={len(times)}, {TAIL_BEYOND}+ beyond)")
    else:
        lines.append(f"cmd_s.tail omitted: {len(times)} invocations, too few for a tail")
    lines.append("samples: " + ", ".join(f"{k} {len(v)}" for k, v in samples.items()))
    return metrics


def run_traced(run: Run, args, work: Path, lines: list[str]):
    run.invoke(0, label="warm-up")
    traced = TracedInvoker(run)
    samples = window(
        run,
        args.seconds,
        {"untraced": run.timed, "traced": traced},
        {"blas1": (lambda: blas_probe(run, args), 1)},
    )
    traced.tracer.write_spans(work / "spans.csv")
    if not traced.layers or len(run.counts) != len(run.cases):
        return {}, {}
    metrics = {key: run.count_mean(key) for key in COUNTS}
    metrics |= {key: traced.median(key) for key in TIMES}
    printed = {key: traced.median(key) for key in PRINTED_TIMES}
    if samples["untraced"]:
        metrics["tracing.overhead"] = statistics.median(samples["traced"]) / statistics.median(samples["untraced"])
    if samples["blas1"]:
        metrics["hamiltonian.blas_speedup"] = samples["blas1"][0] / metrics["hamiltonian.exact_diagonalize.self_s"]
    lines.append(
        f"samples: untraced {len(samples['untraced'])}, traced {len(samples['traced'])}; "
        f"{metrics['hamiltonian.exact_diagonalize.calls']:g} diagonalizations per "
        f"{metrics['adiabatic.evolve_step.calls']:g} evolve steps"
    )
    for key, expected in run.workload.baselines.items():
        verdict = "matches" if math.isclose(metrics[key], expected, rel_tol=1e-12) else "differs from"
        lines.append(f"{key} = {metrics[key]:g} {verdict} the baseline {expected:g}")
    return metrics, printed


def blas_probe(run: Run, args) -> float | None:
    """exact_diagonalize self time of the same workload on one BLAS thread."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(max(1, args.seconds // 4)),
        "--trace", "1", "--blas-probe",
    ]
    _, proc = timed_child(argv, child_env(OPENBLAS_NUM_THREADS="1"))
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0 and result["correct"]:
            return result["exact_diagonalize_self_s"]
    except (IndexError, ValueError, KeyError):
        pass
    run.problem(f"single-thread BLAS probe failed: {proc.stderr.strip()[-300:]}")
    return None


def run_blas_probe(run: Run, args) -> None:
    run.invoke(0, label="warm-up")
    traced = TracedInvoker(run)
    window(run, args.seconds, {"traced": traced})
    result = {"correct": run.failed == 0 and bool(traced.layers)}
    if traced.layers:
        result["exact_diagonalize_self_s"] = traced.median("hamiltonian.exact_diagonalize.self_s")
    print(json.dumps(result))


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import vacuum_refine

    if Path(vacuum_refine.__file__).resolve().parent != ROOT / "src" / "vacuum_refine":
        raise ImportError(f"vacuum_refine imported from {vacuum_refine.__file__}, not this checkout")
    return vacuum_refine


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "vacuum_refine" / "__init__.py").is_file():
        print(f"bench: {ROOT / 'src' / 'vacuum_refine'} is missing; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    vr = import_package()

    workload = WORKLOADS[args.workload]
    work = WORK / (args.workload + ("-blas1" if args.blas_probe else ""))
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    run = Run(workload, workload.generate(args.seed, work), vr, args.seed)
    if args.blas_probe:
        run_blas_probe(run, args)
        return 0

    machine = machine_record()
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        "machine " + "  ".join(f"{k}={v}" for k, v in machine.items()),
    ]
    printed: dict[str, float] = {}
    if args.trace:
        metrics, printed = run_traced(run, args, work, lines)
        units = PER_LAYER
    else:
        metrics = run_end_to_end(run, args, lines)
        units = END_TO_END
    correct = run.failed == 0 and not run.problems and set(metrics) == set(units)
    lines.append(f"failed_frac = {run.failed}/{run.attempted}")
    lines += [f"problem: {p}" for p in run.problems]
    lines += [f"{key:<44} {metrics[key]!r:>24} {unit}" for key, unit in units.items() if key in metrics]
    lines += [f"{key:<44} {value!r:>24} s  (printed only)" for key, value in printed.items()]
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items() if key in metrics},
    }
    (work / "result.json").write_text(
        json.dumps({"machine": machine, "problems": run.problems, "printed": printed, **result}, indent=2) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
