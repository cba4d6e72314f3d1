"""Experiment pipelines behind the command-line interface.

Each ``cmd_*`` function consumes an ``ExperimentConfig``, writes its
deterministic data files under ``output.prefix`` plus a JSON run manifest,
and returns the summary values it printed.  File contents depend only on
the config and seed; wall-clock duration lives in the manifest alone, so
repeated runs produce byte-identical CSV and report files.

Shot-mode estimation draws from streams: each estimated term opens the
next stream of the command, numbered from 0 in evaluation order (the
summary estimates of ``filter-run`` first, then each trajectory
observable term, ramp before hold).  Stream k draws from
``SeedSequence(seed, spawn_key=(k,))``, the k-th child that
``SeedSequence(seed).spawn`` makes, which keeps the seed's words apart
from k (``default_rng([seed, k])`` would make stream 0 of seed
s + k * 2^32 stream k of seed s).  A trajectory's estimates of one term
are drawn from the stack of its recorded states
(``Trajectory.states``), one ``binomial`` call on that term's stream over
the parity probabilities of all the records
(``estimation.shot_estimates``).  So a command's
outputs are reproducible from its seed, and adjacent seeds draw
unrelated noise.

Each command runs on one ``_Run``, which writes its data files and its
manifest.  The manifest's ``counters`` (``counters._Counters``)
give the matrices diagonalized and their summed d^3, the steps evolved,
the streams opened, the values sampled and the shots drawn; the run
passes them down to the ramp, the hold and every diagonalization.  The
same object carries the manifest's ``diagnostics``, the ramp's smallest
instantaneous gap and its s, and its ``stages``, the wall time of the
ramp, the hold, the filter, estimation and writing the data files.
After its config refusals a command diagonalizes its target once, before
any ramp (``_Run.diagonalize``), where a degenerate target is refused.

A trajectory's CSV rows (``_Run.hold``) are the ramp's and the hold's
columns (``Trajectory.times``, the observable and energy columns,
``Trajectory.fidelity``) zipped with the estimates, and a table of
floats alone is written by one string format.
"""

from __future__ import annotations

import csv
import ctypes
import fnmatch
import functools
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .adiabatic import Trajectory, run_adiabatic, run_hold
from .config import EstimationConfig, ExperimentConfig, build_model, config_to_text
from .counters import _Counters
from .errors import ConfigError, DomainError
from .estimation import corrected_expectation, cross_term, shot_estimates
from .filtering import (
    FilterConfig,
    RefinementReport,
    _check_outcome,
    refine_iteratively,
    tag_circuit_one_qubit,
)
from .hamiltonian import (
    DEFAULT_DENSE_CAP,
    DEGENERACY_TOL,
    PauliSum,
    Spectrum,
    exact_diagonalize,
    initial_hamiltonian,
)
from .statevector import StateVector, expectation_observable, expectations, fidelity

REFERENCE_PREP_QUALITY = 0.999242  # benchmark 2|alpha|^2 - 1 for the default J=pi/4 run

_OBS_KEY = "expval_Z"
# The thread-count getter of the OpenBLAS that numpy (>= 2.0) wheels
# bundle in numpy.libs.
_BLAS_GET = "scipy_openblas_get_num_threads64_"


@dataclass
class CommandResult:
    """Outputs, printable summary lines and machine-readable summary values."""

    outputs: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".9g")


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    # A table whose every value is a Python float, in rows of the header's
    # width, needs no quoting, and "%.9g" writes each value as _fmt does:
    # such a table is written by one format of the "%.9g" row template
    # repeated once per row.  The check covers every value, so any other
    # table goes through csv.writer with _fmt.
    values = tuple(itertools.chain.from_iterable(rows))
    floats = set(map(len, rows)) <= {len(header)} and set(map(type, values)) <= {float}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if floats:
            handle.write((",".join(["%.9g"] * len(header)) + "\n") * len(rows) % values)
        else:
            writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


class _Estimator:
    """Evaluates observables exactly or by sampling, one stream per estimated term."""

    def __init__(self, settings: EstimationConfig, counters: _Counters):
        self.settings = settings
        self.exact = settings.method == "exact"
        self.counters = counters

    def evaluate_rows(
        self, amplitudes: np.ndarray, observable: PauliSum
    ) -> tuple[list[float], list[float]]:
        """(values, standard errors) of one observable on each row of a state stack.

        Term t draws from the next stream of the command, its rows in
        order, in one stacked estimate of every term; each row sums its
        terms in order.
        """
        with self.counters.stage("estimation"):
            rows = amplitudes.shape[0]
            if self.exact:
                values = expectations(amplitudes, observable.coeffs, observable.words)
                return values.tolist(), [0.0] * rows
            shots = self.settings.shots
            streams = []
            for _ in observable.terms:
                key = np.random.SeedSequence(self.settings.seed, spawn_key=(self.counters.streams,))
                streams.append(np.random.default_rng(key))
                self.counters.streams += 1
            self.counters.estimates += rows * len(streams)
            self.counters.shots_drawn += rows * len(streams) * shots
            values, errors = shot_estimates(amplitudes, observable.words, shots, streams)
            total = np.zeros(rows)
            variance = np.zeros(rows)
            for coeff, value, error in zip(observable.coeffs[0].tolist(), values.T, errors.T):
                total += coeff * value
                variance += (coeff * error) ** 2
            return total.tolist(), np.sqrt(variance).tolist()

    def evaluate(self, state: StateVector, observable: PauliSum) -> tuple[float, float]:
        """Return (value, standard error) for one observable on one state."""
        values, errors = self.evaluate_rows(state.amplitudes[np.newaxis], observable)
        return values[0], errors[0]


def _mean_z(num_qubits: int) -> PauliSum:
    terms = tuple(
        (1.0 / num_qubits, "I" * q + "Z" + "I" * (num_qubits - q - 1))
        for q in range(num_qubits)
    )
    return PauliSum(num_qubits, terms)


@functools.cache
def _blas_getter():
    """The thread-count getter of numpy's bundled OpenBLAS, or None when none is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(fnmatch.filter(os.listdir(libs), "*openblas*"))
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        if hasattr(lib, _BLAS_GET):
            get = getattr(lib, _BLAS_GET)
            get.restype, get.argtypes = ctypes.c_int, []
            return get
    return None


def _blas_threads() -> int | str:
    """The thread count of numpy's bundled OpenBLAS, read and never set, or "unknown"."""
    get = _blas_getter()
    return get() if get is not None else "unknown"


class _Run:
    """One command's run: its start time, counters, warnings, data files and manifest.

    Opening the run makes the output directory; ``finish`` writes the
    manifest and names it on the last printed line.
    """

    def __init__(self, command: str, config: ExperimentConfig):
        self.started = time.perf_counter()
        self.command = command
        self.config = config
        self.counters = _Counters()
        self.warnings: list[str] = []
        self.outputs: list[str] = []
        directory = os.path.dirname(config.output_prefix)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def diagonalize(self, h1: PauliSum, refusal: str | None = None) -> Spectrum:
        """The target's spectrum, before any ramp; a degenerate one is refused with ``refusal``."""
        spectrum = exact_diagonalize(h1, self.counters)
        if refusal is not None and spectrum.degenerate:
            raise DomainError(refusal)
        return spectrum

    def ramp(self, h1: PauliSum, observable: PauliSum | None = None) -> tuple[StateVector, Trajectory]:
        """The ramp to ``h1``: its final state and a trajectory of ``observable``, if given."""
        config = self.config
        h0 = initial_hamiltonian(config.model.J, h1.num_qubits)
        with self.counters.stage("ramp"):
            final, ramp = run_adiabatic(
                h0,
                h1,
                config.schedule,
                config.mode,
                None if observable is None else {_OBS_KEY: observable},
                record_states=config.estimation.method != "exact",
                records=observable is not None,
                counters=self.counters,
            )
        self.warnings += ramp.warnings
        return final, ramp

    def hold(self, state, h1, spectrum, estimator, ramp, observables, include_initial=False):
        """Hold ``state`` under ``h1``, whose spectrum is ``spectrum``, and write the trajectory.

        Its rows are the ``ramp`` trajectory's records, then the hold's, of
        ``observables`` (the ramp's and the hold's) read by ``estimator``.
        Returns the held state and the line that names the file.
        """
        with self.counters.stage("hold"):
            held, hold = run_hold(
                state,
                h1,
                self.config.schedule,
                self.config.mode,
                {_OBS_KEY: observables[1]},
                record_states=not estimator.exact,
                start_time=self.config.schedule.total_time,
                include_initial=include_initial,
                spectrum=spectrum,
                counters=self.counters,
            )
        self.warnings += hold.warnings
        rows = []
        for trajectory, observable in zip((ramp, hold), observables):
            if estimator.exact:
                values = trajectory.observables[_OBS_KEY]
                errors = [0.0] * len(values)
            else:
                values, errors = estimator.evaluate_rows(trajectory.states, observable)
            columns = (trajectory.fidelity, trajectory.observables["energy"])
            rows += zip(trajectory.times, values, errors, *columns)
        header = ["t", "expval_Z", "std_error", "fidelity", "energy"]
        path = self.write("trajectory.csv", _write_csv, header, rows)
        return held, f"trajectory written to {path} ({len(rows)} records)"

    def write(self, suffix: str, writer, *args) -> str:
        """Write the data file ``<prefix>_<suffix>`` by ``writer(path, *args)``; return its path."""
        path = f"{self.config.output_prefix}_{suffix}"
        with self.counters.stage("writing"):
            writer(path, *args)
        self.outputs.append(path)
        return path

    def finish(self, lines: list[str], summary: dict) -> CommandResult:
        """Write the manifest, name it on the last of ``lines`` and return the result."""
        config = self.config
        path = f"{config.output_prefix}_manifest.json"
        payload = {
            "command": self.command,
            "version": __version__,
            "seed": config.estimation.seed,
            "duration_seconds": time.perf_counter() - self.started,
            "outputs": self.outputs,
            "config": config_to_text(config),
            "warnings": self.warnings,
            "blas_threads": _blas_threads(),
            **self.counters.sections(),
        }
        _write_text(path, json.dumps(payload, indent=2) + "\n")
        lines.append(f"manifest written to {path}")
        return CommandResult(outputs=self.outputs + [path], lines=lines, summary=summary)


def cmd_sweep(config: ExperimentConfig) -> CommandResult:
    """Ramp plus hold with no filtering; the discretized benchmark sweep."""
    run = _Run("sweep", config)
    h1 = build_model(config)
    spectrum = run.diagonalize(h1)
    mean_z = _mean_z(h1.num_qubits)
    final, ramp = run.ramp(h1, mean_z)
    estimator = _Estimator(config.estimation, run.counters)
    held, written = run.hold(final, h1, spectrum, estimator, ramp, (mean_z, mean_z))

    final_fidelity = fidelity(final, spectrum.ground_state)
    prep_quality = 2.0 * final_fidelity - 1.0
    summary = {
        "prep_quality": prep_quality,
        "prep_quality_reference": REFERENCE_PREP_QUALITY,
        "prep_quality_difference": prep_quality - REFERENCE_PREP_QUALITY,
        "final_fidelity": final_fidelity,
        "final_energy": expectation_observable(final, h1),
        "ground_energy": float(spectrum.eigenvalues[0]),
        "held_final_energy": expectation_observable(held, h1),
    }
    run.write("summary.csv", _write_csv, list(summary), [tuple(summary.values())])
    lines = [
        written,
        f"prep quality 2|alpha|^2-1 = {prep_quality:.9f} "
        f"(reference {REFERENCE_PREP_QUALITY}, difference {summary['prep_quality_difference']:+.3e})",
        f"final energy {summary['final_energy']:.9f} vs ground {summary['ground_energy']:.9f}",
    ]
    return run.finish(lines, summary)


def cmd_filter_run(config: ExperimentConfig) -> CommandResult:
    """Ramp, tag the excited component with one ancilla, then hold.

    In discard mode the ancilla is post-selected on |0> at the tagging
    time, and branch 0 over sqrt(p0) is held; otherwise the joint register
    is held under h1, which leaves the leading ancilla alone, and the
    summary reports the mixed value with its closed-form correction.
    """
    run = _Run("filter-run", config)
    h1 = build_model(config)
    if h1.num_qubits != 1:
        raise ConfigError("model.hamiltonian: filter-run requires a one-qubit model")
    spectrum = run.diagonalize(h1, "cannot tag against a degenerate spectrum")
    mean_z = _mean_z(1)
    final, ramp = run.ramp(h1, mean_z)
    estimator = _Estimator(config.estimation, run.counters)

    pre_tag_z = expectation_observable(final, mean_z)
    interference = cross_term(final, spectrum, mean_z)

    with run.counters.stage("filter"):
        tagged = tag_circuit_one_qubit(final, spectrum)

    z_system = PauliSum(2, ((1.0, "IZ"),))
    mixed_z_exact = expectation_observable(tagged, z_system)
    branch = tagged.amplitudes[:2]  # ancilla 0: the E0 component
    p0_exact = float(np.sum(np.abs(branch) ** 2))

    raw, raw_err = estimator.evaluate(tagged, z_system)
    if estimator.exact:
        p0, p0_err = p0_exact, 0.0
    else:
        z_ancilla, z_ancilla_err = estimator.evaluate(tagged, PauliSum(2, ((1.0, "ZI"),)))
        p0, p0_err = (1.0 + z_ancilla) / 2.0, z_ancilla_err / 2.0
    corrected = corrected_expectation(raw, p0)
    denom = 2.0 * p0 - 1.0
    corrected_err = math.sqrt(
        (raw_err / denom) ** 2 + (raw * 2.0 * p0_err / denom**2) ** 2
    )

    post_state, hold_z, post_z = tagged, z_system, mixed_z_exact
    if config.filter.discard:
        with run.counters.stage("filter"):
            _check_outcome(p0_exact, 1)
            post_state = StateVector(1, branch / np.sqrt(p0_exact))
        hold_z = mean_z
        post_z, _ = estimator.evaluate(post_state, mean_z)
    _, written = run.hold(
        post_state, h1, spectrum, estimator, ramp, (mean_z, hold_z), include_initial=True
    )

    summary = {
        "raw": raw,
        "raw_std_error": raw_err,
        "two_p0_minus_1": denom,
        "p0_std_error": p0_err,
        "corrected": corrected,
        "corrected_std_error": corrected_err,
        "cross_term": interference,
        "discontinuity": pre_tag_z - mixed_z_exact,
        "postselected_expval": post_z if config.filter.discard else float("nan"),
    }
    run.write("summary.csv", _write_csv, list(summary), [tuple(summary.values())])
    lines = [
        written,
        f"raw = {raw:.9f}  2p0-1 = {denom:.9f}  corrected = raw/(2p0-1) = {corrected:.9f}",
        f"cross term at tagging time = {interference:.9e} "
        f"(pre/post jump {summary['discontinuity']:.9e})",
    ]
    if config.filter.discard:
        lines.insert(2, f"post-selected expval_Z = {post_z:.9f}")
    return run.finish(lines, summary)


def _excited_level_warnings(report: RefinementReport, spectrum: Spectrum) -> list[str]:
    """One warning per pass whose E0' lies nearer an excited level than the ground level.

    Such a pass tunes the filter to that excited level, so it keeps the
    excited component and its rows can look healthy while the estimate
    sits on the wrong level.
    """
    levels = spectrum.eigenvalues
    warnings = []
    for index, step in enumerate(report.steps, start=1):
        # ties go to the lower level, so an E0' midway is not reported, and
        # a degenerate level is named by its first index, not by rounding
        nearest = int(np.argmin(np.abs(levels - step.e0_prime)))
        nearest = int(np.argmax(levels >= levels[nearest] - DEGENERACY_TOL))
        if nearest > 0:
            warnings.append(
                f"pass {index}: E0' = {_fmt(step.e0_prime)} lies nearer excited level "
                f"{nearest} (E = {_fmt(levels[nearest])}) than the ground level "
                f"(E = {_fmt(levels[0])})"
            )
    return warnings


def cmd_refine(config: ExperimentConfig) -> CommandResult:
    """Ramp, then iterative estimate/filter/post-select passes."""
    run = _Run("refine", config)
    if config.estimation.method != "exact":
        raise ConfigError(
            f"estimation.method: refine supports only exact estimation, "
            f"got {config.estimation.method!r}"
        )
    h1 = build_model(config)
    if h1.num_qubits > DEFAULT_DENSE_CAP:
        raise ConfigError(
            f"model.hamiltonian: refinement supports 1 to {DEFAULT_DENSE_CAP} system qubits, "
            f"got {h1.num_qubits}"
        )
    # refuse unusable filter settings before the ramp, not at the first pass
    try:
        FilterConfig(config.filter.ancillas, 0.0, config.filter.powers)
    except DomainError as exc:
        raise ConfigError(f"filter: {exc}") from exc
    spectrum = run.diagonalize(h1, "iterative refinement needs a non-degenerate ground level")
    final, _ = run.ramp(h1)
    start_fidelity = fidelity(final, spectrum.ground_state)

    fixed_theta = config.filter.theta if config.filter.theta_mode == "fixed" else None
    with run.counters.stage("filter"):
        report = refine_iteratively(
            final,
            h1,
            spectrum,
            m=config.filter.ancillas,
            max_iters=config.refine.max_iters,
            target_infidelity=config.refine.target_infidelity,
            powers=config.filter.powers,
            fixed_theta=fixed_theta,
        )
    run.counters.filter_passes += len(report.steps)
    rows = []
    for index, step in enumerate(report.steps, start=1):
        is_aborted_row = report.status.startswith("aborted") and index == len(report.steps)
        rows.append(
            (
                index,
                step.e0_prime,
                step.theta,
                step.success_probability,
                step.fidelity_to_ground,
                step.excited_weight,
                report.status if is_aborted_row else "ok",
            )
        )
    path = run.write(
        "refinement.csv",
        _write_csv,
        ["iteration", "E0_prime", "theta", "success_probability", "fidelity", "excited_weight", "status"],
        rows,
    )
    summary = {
        "start_fidelity": start_fidelity,
        "passes": len(report.steps),
        "status": report.status,
        "final_fidelity": report.steps[-1].fidelity_to_ground if report.steps else start_fidelity,
        "final_excited_weight": report.steps[-1].excited_weight if report.steps else 1.0 - start_fidelity,
    }
    run.warnings += _excited_level_warnings(report, spectrum)
    lines = [
        f"refinement written to {path} ({len(rows)} pass(es))",
        f"start fidelity {start_fidelity:.9f} -> final fidelity {summary['final_fidelity']:.9f} "
        f"({report.status})",
    ]
    return run.finish(lines, summary)


def _load_state_file(path: str, expected_qubits: int) -> StateVector:
    """Read one ``<re> <im>`` amplitude per line, requiring near-unit norm."""
    if not os.path.isfile(path):
        raise ConfigError(f"state file not found: {path}")
    values: list[complex] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, rawline in enumerate(handle, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}: line {lineno}: expected '<re> <im>', got {rawline!r}")
            try:
                values.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: bad number in {rawline!r}") from None
    if len(values) != 2**expected_qubits:
        raise ConfigError(
            f"{path}: expected {2 ** expected_qubits} amplitudes, found {len(values)}"
        )
    amps = np.asarray(values, dtype=np.complex128)
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= 1e-6:
        raise ConfigError(f"{path}: amplitudes have norm {norm!r}, expected 1 within 1e-6")
    return StateVector(expected_qubits, amps / norm)


def cmd_diag(config: ExperimentConfig) -> CommandResult:
    """Report the model spectrum and, for a supplied state, its interference."""
    run = _Run("diag", config)
    h = build_model(config)
    spectrum = run.diagonalize(h)
    ground = spectrum.ground_state
    lines = [
        f"model: {config.model.hamiltonian} (J = {_fmt(config.model.J)})",
        "eigenvalues: " + ", ".join(_fmt(v) for v in spectrum.eigenvalues),
        f"gap: {_fmt(spectrum.gap)}",
        f"degenerate ground level: {'yes' if spectrum.degenerate else 'no'}",
    ]
    per_qubit = []
    for q in range(h.num_qubits):
        string = "I" * q + "Z" + "I" * (h.num_qubits - q - 1)
        value = expectation_observable(ground, PauliSum(h.num_qubits, ((1.0, string),)))
        per_qubit.append(value)
        lines.append(f"ground <Z_{q}>: {_fmt(value)}")
    summary = {
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "gap": spectrum.gap,
        "degenerate": spectrum.degenerate,
        "ground_z": per_qubit,
    }
    if config.state_file is not None:
        state = _load_state_file(config.state_file, h.num_qubits)
        interference = cross_term(state, spectrum, _mean_z(h.num_qubits))
        summary["cross_term"] = interference
        lines.append(f"state file: {config.state_file}")
        lines.append(f"cross term (mean Z): {_fmt(interference)}")
    run.write("diag.txt", _write_text, "\n".join(lines) + "\n")
    return run.finish(lines, summary)
