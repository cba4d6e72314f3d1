"""Benchmark workloads: seeded input generation and output checks.

Every input the program sees is written here from the workload seed: the
TFIM chain operator files and the config files that point at them.  The
checks read the files a command wrote and raise ``CheckFailed`` when an
output is wrong; they run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

SHIPPED_SHOTS_CONFIG = Path("configs") / "benchmark_shots.cfg"
COUPLING_RANGE = (0.5, 1.5)


class CheckFailed(Exception):
    """An output file disagrees with what the workload requires."""


@dataclass(frozen=True)
class Case:
    """One generated config; a workload cycles through its cases."""

    config_path: str
    prefix: str
    oracle_ground: float | None = None
    expected_rows: int = 0  # exact for trajectories, the pass limit for refinement


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    generate: Callable[[int, Path], list[Case]]
    check: Callable[[Case, dict[str, bytes], dict | None], None]
    cli_runs: int  # CLI probes per run; fewer where one CLI run takes seconds
    # Per-invocation counts measured at the commit that defined the
    # benchmark.  They are printed next to the traced counts; a later
    # change that removes redundant work is expected to move them.
    baselines: dict[str, float] = field(default_factory=dict)


# --- input generation ----------------------------------------------------


def tfim_chain_terms(n: int, rng: random.Random) -> list[tuple[float, str]]:
    """Open TFIM chain -sum J_i Z_i Z_i+1 - sum g_i X_i, J and g drawn from rng."""
    terms = []
    for i in range(n - 1):
        word = ["I"] * n
        word[i] = word[i + 1] = "Z"
        terms.append((-rng.uniform(*COUPLING_RANGE), "".join(word)))
    for i in range(n):
        word = ["I"] * n
        word[i] = "X"
        terms.append((-rng.uniform(*COUPLING_RANGE), "".join(word)))
    return terms


_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.diag([1.0, -1.0]).astype(np.complex128),
}


def dense_ground_energy(terms: list[tuple[float, str]]) -> float:
    """Lowest eigenvalue of the operator, built here independently of the package."""
    dim = 2 ** len(terms[0][1])
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, word in terms:
        matrix += coeff * reduce(np.kron, [_PAULI[ch] for ch in word])
    return float(np.linalg.eigvalsh(matrix)[0])


def _write_chain(path: Path, terms: list[tuple[float, str]], seed: int) -> None:
    lines = [f"# TFIM chain generated by bench/workloads.py from seed {seed}"]
    lines += [f"{coeff!r} {word}" for coeff, word in terms]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_config(path: Path, settings: list[str]) -> None:
    path.write_text("\n".join(settings) + "\n", encoding="utf-8")


def generate_chain_sweep(seed: int, work: Path) -> list[Case]:
    rng = random.Random(seed)
    terms = tfim_chain_terms(8, rng)
    model = work / "chain8.txt"
    _write_chain(model, terms, seed)
    config = work / "chain-sweep.cfg"
    prefix = str(work / "out" / "sweep")
    _write_config(
        config,
        [
            f"model.hamiltonian = {model}",
            "schedule.T = 4",
            "schedule.dt = 0.125",
            "schedule.hold_time = 1",
            "mode = exact_step",
            "estimation.method = exact",
            f"estimation.seed = {seed}",
            f"output.prefix = {prefix}",
        ],
    )
    # 1 initial + 32 ramp + 8 hold records.
    return [Case(str(config), prefix, dense_ground_energy(terms), expected_rows=41)]


def generate_qubit_shots(seed: int, work: Path) -> list[Case]:
    shipped = SHIPPED_SHOTS_CONFIG.read_text(encoding="utf-8").splitlines()
    overridden = ("estimation.seed", "output.prefix")
    kept = [line for line in shipped if line.split("=", 1)[0].strip() not in overridden]
    config = work / "qubit-shots.cfg"
    prefix = str(work / "out" / "shots")
    _write_config(config, kept + [f"estimation.seed = {seed}", f"output.prefix = {prefix}"])
    # 864 ramp + 288 hold steps plus t=0 and the duplicated t=T row.
    return [Case(str(config), prefix, expected_rows=1154)]


CHAIN_REFINE_MODELS = 8


def generate_chain_refine(seed: int, work: Path) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for k in range(CHAIN_REFINE_MODELS):
        model = work / f"chain4_{k}.txt"
        _write_chain(model, tfim_chain_terms(4, rng), seed)
        config = work / f"chain-refine_{k}.cfg"
        prefix = str(work / "out" / f"refine{k}")
        _write_config(
            config,
            [
                f"model.hamiltonian = {model}",
                "schedule.T = 4",
                "schedule.dt = 0.125",
                "schedule.hold_time = 0",
                "filter.ancillas = 3",
                "filter.powers = 1,2,4",
                "refine.max_iters = 5",
                f"output.prefix = {prefix}",
            ],
        )
        cases.append(Case(str(config), prefix, expected_rows=5))
    return cases


# --- output checks -------------------------------------------------------


def _table(files: dict[str, bytes], suffix: str) -> list[dict[str, str]]:
    if suffix not in files:
        raise CheckFailed(f"missing output *{suffix}")
    return list(csv.DictReader(io.StringIO(files[suffix].decode("utf-8"))))


def _csv_tolerance(value: float) -> float:
    """Half a unit in the ninth significant digit, the CSV precision."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 8) if value else 0.0


def check_chain_sweep(case: Case, files: dict[str, bytes], summary: dict | None) -> None:
    rows = _table(files, "_trajectory.csv")
    if len(rows) != case.expected_rows:
        raise CheckFailed(f"trajectory has {len(rows)} rows, expected {case.expected_rows}")
    (row,) = _table(files, "_summary.csv")
    ground = float(row["ground_energy"])
    if abs(ground - case.oracle_ground) > 1e-9 + _csv_tolerance(case.oracle_ground):
        raise CheckFailed(f"CSV ground_energy {ground!r} vs oracle {case.oracle_ground!r}")
    if summary is not None and abs(summary["ground_energy"] - case.oracle_ground) > 1e-9:
        raise CheckFailed(
            f"ground_energy {summary['ground_energy']!r} vs oracle {case.oracle_ground!r}"
        )


def check_qubit_shots(case: Case, files: dict[str, bytes], summary: dict | None) -> None:
    rows = _table(files, "_trajectory.csv")
    if len(rows) != case.expected_rows:
        raise CheckFailed(f"trajectory has {len(rows)} rows, expected {case.expected_rows}")
    (row,) = _table(files, "_summary.csv")
    corrected = float(row["corrected"])
    err = float(row["corrected_std_error"])
    if not err > 0 or abs(corrected - 1.0 / math.sqrt(2.0)) > 5.0 * err:
        raise CheckFailed(f"corrected {corrected!r} is not within 5 x {err!r} of 1/sqrt(2)")


def check_chain_refine(case: Case, files: dict[str, bytes], summary: dict | None) -> None:
    rows = _table(files, "_refinement.csv")
    if not 1 <= len(rows) <= case.expected_rows or [int(r["iteration"]) for r in rows] != list(
        range(1, len(rows) + 1)
    ):
        raise CheckFailed(
            f"refinement rows {[r['iteration'] for r in rows]} are not one per pass "
            f"(at most {case.expected_rows})"
        )
    for r in rows:
        if r["status"].startswith("aborted"):
            raise CheckFailed(f"pass {r['iteration']} aborted: {r['status']}")
        total = float(r["fidelity"]) + float(r["excited_weight"])
        if abs(total - 1.0) > 1e-9:
            raise CheckFailed(f"pass {r['iteration']}: fidelity + excited_weight = {total!r}")
    if summary is not None and summary["passes"] != len(rows):
        raise CheckFailed(f"summary reports {summary['passes']} passes, CSV has {len(rows)}")


WORKLOADS = {
    w.name: w
    for w in (
        # Dense operator build and diagonalization dominate (256x256 at n=8,
        # 75 diagonalizations for 40 steps), while shot sampling and the
        # filter do no work: this is where a cheaper operator or a
        # matrix-free step must show.
        Workload(
            name="chain-sweep",
            command="sweep",
            generate=generate_chain_sweep,
            check=check_chain_sweep,
            cli_runs=3,
            baselines={
                "hamiltonian.exact_diagonalize.calls": 75,
                "hamiltonian.diag_distinct_frac": 34 / 75,
            },
        ),
        # The paper's own benchmark run: one qubit, 1152 steps and 10^6
        # shots per term, so linear algebra is 2x2 and per-call overhead
        # rules.  A flop-bound optimisation should show no gain here, while
        # overhead or redundancy removal (288 identical hold propagators)
        # should.
        Workload(
            name="qubit-shots",
            command="filter-run",
            generate=generate_qubit_shots,
            check=check_qubit_shots,
            cli_runs=9,
            baselines={
                "hamiltonian.exact_diagonalize.calls": 2019,
                "hamiltonian.to_matrix.calls": 2020,
                "hamiltonian.diag_distinct_frac": 866 / 2019,
            },
        ),
        # The only workload that runs the filtering layer (controlled-U
        # powers, post-selection, eigen_overlaps) and writes the refinement
        # CSV; its 16x16 system and 7-qubit joint register keep Python
        # overhead, not flops, in front.
        Workload(
            name="chain-refine",
            command="refine",
            generate=generate_chain_refine,
            check=check_chain_refine,
            cli_runs=9,
            baselines={
                "hamiltonian.exact_diagonalize.calls": 82,
                "hamiltonian.diag_distinct_frac": 34 / 82,
            },
        ),
    )
}
