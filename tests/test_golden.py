"""Byte-identity of command outputs against committed snapshots.

Every CSV and diag report must come out byte for byte as its snapshot
under ``tests/golden/``.  Snapshots rewritten after a deliberate output
change, and by how much:

- ``diag_pair`` and ``refine_pair``, when real operators moved to real
  arithmetic: a value near zero moved by less than 1e-15, which
  ``test_real_arithmetic_moves_only_rounding_noise`` checks against the
  complex path.
- ``refine_pair``, when propagators came to be applied straight from
  the spectrum, V (phases * (V^H x)), instead of through a dense
  matrix: only ``excited_weight``, which is 1 - F at the float64
  resolution of F near 1, moved, at pass 3 from 2.79122649e-08 to
  2.79122654e-08 and at pass 4 from 2.61337174e-10 to 2.61337618e-10.
- ``refine_pair`` and ``refine_pair_fixed_theta``, when the filter came
  to be applied on the system register as prod_j (I + U^p_j) / 2
  instead of through the joint ancilla circuit: again only
  ``excited_weight`` moved, by 2e-16 to 7e-16 in 1 - F, ``refine_pair``
  pass 3 from 2.79122654e-08 to 2.79122652e-08, and
  ``refine_pair_fixed_theta`` pass 4 from 3.14068476e-08 to
  3.14068469e-08 and pass 5 from 2.8493401e-09 to 2.84933988e-09.
- ``filter_shots``, ``filter_keep_shots`` and ``sweep_chain3y_shots``,
  when shot seeds became streams: each estimated term k draws from
  ``SeedSequence(seed, spawn_key=(k,))`` instead of each value from its
  own seed ``seed + counter``, and a word's shots are one binomial over
  its even-parity weight, so every sampled value and standard error
  moved while the exact columns did not.
- ``refine_pair``, when the exact steps of ramps up to three qubits came
  to be taken as one product with each step's prebuilt propagator
  V^* diag(phases) V^T instead of through the eigenvectors: only
  ``excited_weight`` moved, at pass 3 from 2.79122652e-08 to
  2.79122654e-08 and at pass 4 from 2.61337618e-10 to 2.61337396e-10.
  ``test_snapshots_match_the_independent_pipeline`` holds the new bytes.

Manifests are not compared because they carry a wall-clock duration.

To rewrite the snapshots of the named cases after a deliberate,
documented output change (every other snapshot is left alone):

    PYTHONPATH=src python tests/test_golden.py NAME...
"""

from __future__ import annotations

import csv
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from vacuum_refine import cmd_diag, cmd_filter_run, cmd_refine, cmd_sweep, hamiltonian, parse_config
from vacuum_refine import adiabatic, experiments, statevector
from vacuum_refine.pauli import apply_words

from oracles import expm_ramp, pauli_sum_matrix, refine_passes, sweep_trajectory

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CHAIN3Y = GOLDEN / "chain3y.txt"
CHAIN6 = GOLDEN / "chain6.txt"
CHAIN7Y = GOLDEN / "chain7y.txt"

# name -> (command, config file, extra settings)
CASES = {
    "sweep_benchmark": (cmd_sweep, "configs/benchmark.cfg", ""),
    "filter_benchmark": (cmd_filter_run, "configs/benchmark.cfg", ""),
    "filter_keep_benchmark": (cmd_filter_run, "configs/benchmark.cfg", "filter.discard = false\n"),
    "filter_shots": (cmd_filter_run, "configs/benchmark_shots.cfg", ""),
    "refine_pair": (cmd_refine, "configs/pair_refine.cfg", ""),
    # A fixed filter phase and odd propagator powers instead of pi/E0' and 2^j.
    "refine_pair_fixed_theta": (
        cmd_refine,
        "configs/pair_refine.cfg",
        "filter.theta_mode = fixed\nfilter.theta = -1.3\nfilter.powers = 1,3,5\n",
    ),
    "diag_pair": (cmd_diag, "configs/pair_refine.cfg", ""),
    # Keep mode's two-qubit hold in shot mode.
    "filter_keep_shots": (cmd_filter_run, "configs/benchmark_shots.cfg", "filter.discard = false\n"),
    # Keep mode's hold stepped by trotter1 on the two-qubit register.
    "filter_keep_trotter": (
        cmd_filter_run,
        "configs/benchmark.cfg",
        "filter.discard = false\nmode = trotter1\n",
    ),
    # A three-qubit operator with Y letters, through both step modes.
    "sweep_chain3y_trotter": (
        cmd_sweep,
        None,
        f"model.hamiltonian = {CHAIN3Y}\nschedule.T = 4\nschedule.dt = 0.125\n"
        "schedule.hold_time = 1\nmode = trotter1\n",
    ),
    # Shot mode on three qubits: a three-term observable (several seeds
    # per record), marginals over the other qubits, and the hold.
    "sweep_chain3y_shots": (
        cmd_sweep,
        None,
        f"model.hamiltonian = {CHAIN3Y}\nschedule.T = 4\nschedule.dt = 0.125\n"
        "schedule.hold_time = 1\nestimation.method = shots\nestimation.shots = 5000\n",
    ),
    "refine_chain3y": (
        cmd_refine,
        None,
        f"model.hamiltonian = {CHAIN3Y}\nschedule.T = 4\nschedule.dt = 0.125\n"
        "schedule.hold_time = 0\nfilter.ancillas = 3\nrefine.max_iters = 3\n",
    ),
    # Six qubits: the ramp's 33 operators are three stacks of eigendecompositions.
    "sweep_chain6": (
        cmd_sweep,
        None,
        f"model.hamiltonian = {CHAIN6}\nschedule.T = 4\nschedule.dt = 0.125\nschedule.hold_time = 1\n",
    ),
    # Seven qubits with Y letters: the ramp takes no eigenvectors, in both
    # step modes and in refine.
    "sweep_chain7y": (
        cmd_sweep,
        None,
        f"model.hamiltonian = {CHAIN7Y}\nschedule.T = 2\nschedule.dt = 0.125\nschedule.hold_time = 1\n",
    ),
    "sweep_chain7y_trotter": (
        cmd_sweep,
        None,
        f"model.hamiltonian = {CHAIN7Y}\nschedule.T = 2\nschedule.dt = 0.125\n"
        "schedule.hold_time = 1\nmode = trotter1\n",
    ),
    "refine_chain7y": (
        cmd_refine,
        None,
        f"model.hamiltonian = {CHAIN7Y}\nschedule.T = 2\nschedule.dt = 0.125\n"
        "schedule.hold_time = 0\nfilter.ancillas = 3\nrefine.max_iters = 3\n",
    ),
}


def _run(name: str, directory: Path) -> dict[str, bytes]:
    """Run one case with its outputs under ``directory``; returns data files by name."""
    command, config_file, extra = CASES[name]
    text = (ROOT / config_file).read_text(encoding="utf-8") if config_file else ""
    # the extra settings and the prefix replace the config file's own lines for their keys
    replaced = {line.split("=")[0].strip() for line in extra.splitlines()} | {"output.prefix"}
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in replaced]
    config = parse_config("\n".join(kept) + "\n" + extra + f"output.prefix = {directory / name}\n")
    result = command(config)
    return {
        Path(path).name: Path(path).read_bytes()
        for path in result.outputs
        if not path.endswith("_manifest.json")
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_snapshot(name, tmp_path):
    files = _run(name, tmp_path)
    # <case>_<kind>.<ext>, so refine_pair does not claim refine_pair_fixed_theta's file
    expected = sorted(p.name for p in GOLDEN.iterdir() if p.name.rsplit("_", 1)[0] == name)
    assert sorted(files) == expected
    for filename, content in files.items():
        assert content == (GOLDEN / filename).read_bytes(), filename


SHOT_CASES = ["filter_shots", "filter_keep_shots", "sweep_chain3y_shots"]


@pytest.mark.parametrize("name", SHOT_CASES)
def test_shot_snapshots_do_not_depend_on_the_block_size(name, tmp_path, monkeypatch):
    # the readout kernel gathers blocks of rows; blocks of at most 16
    # amplitudes (2 to 8 records) must draw the snapshot's bytes
    monkeypatch.setattr(statevector, "_STACK_ENTRIES", 16)
    gathered = []

    def recorded(words, amplitudes):
        gathered.append(amplitudes.shape[0])
        return apply_words(words, amplitudes)

    monkeypatch.setattr(statevector, "apply_words", recorded)
    files = _run(name, tmp_path)
    assert max(gathered) <= 8 and len(gathered) > 50
    for filename, content in files.items():
        assert content == (GOLDEN / filename).read_bytes(), filename


@pytest.mark.parametrize("name", ["sweep_benchmark", "filter_benchmark", "filter_keep_benchmark"])
def test_exact_snapshots_do_not_depend_on_the_block_size(name, tmp_path, monkeypatch):
    # one name sizes every block: at 16 entries the ramp's stacks hold four
    # 2x2 matrices and the hold's blocks eight one-qubit records, or four
    # two-qubit records with the ancilla, where by default each is one block
    monkeypatch.setattr(statevector, "_STACK_ENTRIES", 16)
    read = adiabatic._Recorder.read
    blocks = []

    def recorded(self, times, states, *args):
        blocks.append(states.shape)
        return read(self, times, states, *args)

    monkeypatch.setattr(adiabatic._Recorder, "read", recorded)
    files = _run(name, tmp_path)
    ramp, hold = blocks[:217], blocks[217:]
    assert ramp == [(4, 2)] * 216 + [(1, 2)]
    # 288 hold steps, after the tagged state's record in filter-run
    dim = 4 if name == "filter_keep_benchmark" else 2
    records = 288 if name == "sweep_benchmark" else 289
    assert sum(rows for rows, _ in hold) == records
    assert all(rows * d <= 16 and d == dim for rows, d in hold)
    for filename, content in files.items():
        assert content == (GOLDEN / filename).read_bytes(), filename


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@pytest.mark.parametrize("name", ["diag_pair", "refine_pair"])
def test_real_arithmetic_moves_only_rounding_noise(name, tmp_path, monkeypatch):
    real = _run(name, tmp_path)
    build = hamiltonian._GroupedStack.__init__
    forced = []

    def complex_stack(self, num_qubits, words, coeffs, real):
        forced.append(real)
        build(self, num_qubits, words, coeffs, False)

    # every dense matrix, one operator's or a ramp stack's, is built here
    monkeypatch.setattr(hamiltonian._GroupedStack, "__init__", complex_stack)
    complex_path = _run(name, tmp_path / "complex")
    assert any(forced)
    assert sorted(real) == sorted(complex_path)
    for filename, content in real.items():
        got, expected = content.decode(), complex_path[filename].decode()
        assert NUMBER.sub("#", got) == NUMBER.sub("#", expected)
        for a, b in zip(NUMBER.findall(got), NUMBER.findall(expected)):
            assert abs(float(a) - float(b)) <= 1e-15, (filename, a, b)


def _print_resolution(text: str) -> float:
    """Half a unit in the last of the nine significant digits of a "%.9g" value."""
    value = abs(float(text))
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - 8) if value else 0.0


def _snapshot_rows(filename: str) -> list[list[str]]:
    with open(GOLDEN / filename, newline="") as handle:
        return list(csv.reader(handle))[1:]


# the shipped models, from their definitions: -J (Z + X) / sqrt(2) and
# -J (ZZ + XI + IX), each ramped from -J sum_q Z_q, J = pi / 4
_J = math.pi / 4
_QUBIT = [(-_J / math.sqrt(2.0), "X"), (-_J / math.sqrt(2.0), "Z")]
_PAIR = [(-_J, "ZZ"), (-_J, "XI"), (-_J, "IX")]
_PIPELINE = {
    # configs/benchmark.cfg's T, dt and hold; the refine cases' powers and
    # fixed theta (None: pi / E0'), after configs/pair_refine.cfg's ramp
    # (T = 8, dt = 1/8) and at most 5 passes to 1 - F <= 1e-8
    "sweep_benchmark": (36.0, 1.0 / 24.0, 12.0),
    "refine_pair": ((1, 2, 4), None),
    "refine_pair_fixed_theta": ((1, 3, 5), -1.3),
}


@pytest.mark.parametrize("name", sorted(_PIPELINE))
def test_snapshots_match_the_independent_pipeline(name):
    # every value of the snapshot against scipy expm midpoint steps, dense
    # eigh and the joint-register filter circuit (tests/oracles.py), at the
    # "%.9g" print resolution; excited_weight, 1 - F at the float64
    # resolution of F near 1, within 1e-12
    pytest.importorskip("scipy.linalg")
    if name == "sweep_benchmark":
        expected = sweep_trajectory([(-_J, "Z")], _QUBIT, 1, *_PIPELINE[name])
        snapshot = _snapshot_rows(f"{name}_trajectory.csv")
        # exact estimation: every std_error is 0
        assert {error for _, _, error, _, _ in snapshot} == {"0"}
        rows = [[t, z, f, e] for t, z, _, f, e in snapshot]
        loose = set()
    else:
        powers, theta = _PIPELINE[name]
        h0 = pauli_sum_matrix([(-_J, "ZI"), (-_J, "IZ")], 2)
        h1 = pauli_sum_matrix(_PAIR, 2)
        start = expm_ramp(h0, h1, 8.0, 0.125)[-1]
        expected = refine_passes(h1, start, powers, 5, 1e-8, theta)
        rows = [row[1:6] for row in _snapshot_rows(f"{name}_refinement.csv")]
        loose = {4}
    assert len(rows) == len(expected)
    for row, values in zip(rows, expected):
        for column, (text, value) in enumerate(zip(row, values)):
            tolerance = 1e-12 if column in loose else _print_resolution(text) * (1 + 1e-9)
            assert abs(float(text) - value) <= tolerance, (name, row, column, value)


def _rewrite(names: list[str]) -> int:
    """Rewrite the snapshots of the named cases only; returns an exit code."""
    unknown = [name for name in names if name not in CASES]
    if not names or unknown:
        if unknown:
            print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"usage: test_golden.py NAME...  (cases: {', '.join(sorted(CASES))})", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        for case in names:
            for filename, content in _run(case, Path(scratch)).items():
                (GOLDEN / filename).write_bytes(content)
            print(f"wrote {case}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(_rewrite(sys.argv[1:]))
