"""Byte-identity of command outputs against committed snapshots.

The files under ``tests/golden/`` were written by the package before the
operator representation moved to X/Z bitmasks; every CSV and diag report
must still come out byte for byte the same.  The two exceptions are
``diag_pair`` and ``refine_pair``, rewritten when real operators moved to
real arithmetic: a value near zero moved there by less than 1e-15, which
``test_real_arithmetic_moves_only_rounding_noise`` checks against the
complex path.  ``refine_pair`` was rewritten once more when propagators
came to be applied straight from the spectrum, V (phases * (V^H x)),
instead of through a dense matrix: only ``excited_weight``, which is
1 - F at the float64 resolution of F near 1, moved, at pass 3 from
2.79122649e-08 to 2.79122654e-08 and at pass 4 from 2.61337174e-10 to
2.61337618e-10.  ``refine_pair`` and ``refine_pair_fixed_theta`` were
rewritten when the filter came to be applied on the system register as
prod_j (I + U^p_j) / 2 instead of through the joint ancilla circuit;
again only ``excited_weight`` moved, by 2e-16 to 7e-16 in 1 - F:
``refine_pair`` pass 3 from 2.79122654e-08 to 2.79122652e-08, and
``refine_pair_fixed_theta`` pass 4 from 3.14068476e-08 to 3.14068469e-08
and pass 5 from 2.8493401e-09 to 2.84933988e-09.  The shot-mode
snapshots (``filter_shots``, ``filter_keep_shots`` and
``sweep_chain3y_shots``) were rewritten when shot seeds became streams:
each estimated term k draws from ``SeedSequence(seed, spawn_key=(k,))``
instead of each value from its own seed ``seed + counter``, and a word's
shots are one binomial over its even-parity weight, so every sampled
value and standard error moved while the exact columns did not.  No
byte moved when a word's parity probability came to be read as
(1 + <P>) / 2 from the per-word overlaps of the word table instead of
the Born weights of the rotated state.  The ``chain6`` and ``chain7y``
snapshots (a multi-stack eigenvector ramp, and ramps of 7 qubits that
take no eigenvectors, in both step modes and in ``refine``) were written
while those ramps took ``eigvalsh`` and inverse iteration; no byte moved
when block Lanczos replaced both.  The three stacks of the ``chain6``
ramp were diagonalized in a thread pool when its snapshot was written; no
byte moved when they came one after another on the calling thread.
Nor did one move when the tag became the one-ancilla filter on the
system state and keep mode's hold came to take the ancilla-embedded
operator's spectrum from the target's instead of diagonalizing it.
No byte moved either, ``filter_keep_trotter`` (written before that
change) included, when both modes' holds came to run under the one-qubit
target and its own spectrum, the kept ancilla leading the register, and
discard mode came to hold branch 0 over sqrt(p0) in place of
``postselect``.  Nor did one move when every dense matrix, one
operator's and each ramp stack's on both ramp paths, came to be written
by one build from the operators' X-group entries.
Manifests are not compared because they carry a wall-clock duration.

To rewrite the snapshots of the named cases after a deliberate,
documented output change (every other snapshot is left alone):

    PYTHONPATH=src python tests/test_golden.py NAME...
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

import pytest

from vacuum_refine import cmd_diag, cmd_filter_run, cmd_refine, cmd_sweep, hamiltonian, parse_config
from vacuum_refine import adiabatic, experiments, statevector
from vacuum_refine.pauli import apply_words

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
