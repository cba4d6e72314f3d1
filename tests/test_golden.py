"""Byte-identity of command outputs against committed snapshots.

The files under ``tests/golden/`` were written by the package before the
operator representation moved to X/Z bitmasks; every CSV and diag report
must still come out byte for byte the same.  Manifests are not compared
because they carry a wall-clock duration.

To rewrite the snapshots after a deliberate, documented output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from vacuum_refine import cmd_diag, cmd_filter_run, cmd_refine, cmd_sweep, parse_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CHAIN3Y = GOLDEN / "chain3y.txt"

# name -> (command, config file, extra settings)
CASES = {
    "sweep_benchmark": (cmd_sweep, "configs/benchmark.cfg", ""),
    "filter_benchmark": (cmd_filter_run, "configs/benchmark.cfg", ""),
    "filter_keep_benchmark": (cmd_filter_run, "configs/benchmark.cfg", "filter.discard = false\n"),
    "filter_shots": (cmd_filter_run, "configs/benchmark_shots.cfg", ""),
    "refine_pair": (cmd_refine, "configs/pair_refine.cfg", ""),
    "diag_pair": (cmd_diag, "configs/pair_refine.cfg", ""),
    # A three-qubit operator with Y letters, through both step modes.
    "sweep_chain3y_trotter": (
        cmd_sweep,
        None,
        f"model.hamiltonian = {CHAIN3Y}\nschedule.T = 4\nschedule.dt = 0.125\n"
        "schedule.hold_time = 1\nmode = trotter1\n",
    ),
    "refine_chain3y": (
        cmd_refine,
        None,
        f"model.hamiltonian = {CHAIN3Y}\nschedule.T = 4\nschedule.dt = 0.125\n"
        "schedule.hold_time = 0\nfilter.ancillas = 3\nrefine.max_iters = 3\n",
    ),
}


def _run(name: str, directory: Path) -> dict[str, bytes]:
    """Run one case with its outputs under ``directory``; returns data files by name."""
    command, config_file, extra = CASES[name]
    text = (ROOT / config_file).read_text(encoding="utf-8") if config_file else ""
    kept = [line for line in text.splitlines() if not line.strip().startswith("output.prefix")]
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
    expected = sorted(p.name for p in GOLDEN.glob(f"{name}_*"))
    assert sorted(files) == expected
    for filename, content in files.items():
        assert content == (GOLDEN / filename).read_bytes(), filename


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for filename, content in _run(case, Path(scratch)).items():
                (GOLDEN / filename).write_bytes(content)
            print(f"wrote {case}", file=sys.stderr)
