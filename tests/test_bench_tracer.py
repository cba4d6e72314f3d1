"""The benchmark tracer's observers still read what the package returns.

``bench/tracing.py`` wraps package functions and reads their arguments
and results (``success_probability``, ``steps``, ``shots``) to derive
per-layer figures.  ``test_bench_names.py`` checks that the traced names
exist; this runs one command of each benchmark workload and one direct
call under the tracer, each taken as its own invocation, and checks the
figures its observers derive.  Each command must reach
``exact_diagonalize``: the benchmark divides by its self time.  The
tracer is loaded from its file without writing bytecode, so nothing
under ``bench/`` is written.
"""

from __future__ import annotations

import csv
import importlib.util
import sys
from pathlib import Path

import vacuum_refine as vr
from vacuum_refine.config import parse_config, with_overrides

from oracles import seeded_chain_text

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_observers_read_the_results(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    listing = sorted(p.name for p in BENCH.iterdir())
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    chain = tmp_path / "chain.txt"
    chain.write_text(seeded_chain_text(4, seed=7))
    sweep = parse_config(
        f"model.hamiltonian = {chain}\nschedule.T = 1\nschedule.dt = 0.25\n"
        f"schedule.hold_time = 0\noutput.prefix = {tmp_path}/chain\n"
    )
    shots = with_overrides(
        vr.load_config(str(ROOT / "configs/benchmark_shots.cfg")), out=str(tmp_path / "shots")
    )
    refine = with_overrides(
        vr.load_config(str(ROOT / "configs/pair_refine.cfg")), out=str(tmp_path / "pair")
    )
    commands = [(vr.cmd_sweep, sweep), (vr.cmd_filter_run, shots), (vr.cmd_refine, refine)]
    replaced = tracing.install(tracer)
    try:
        figures = []
        for command, config in commands:
            command(config)
            figures.append(tracer.take())
        direct = vr.shot_expectation(vr.basis_state(1, 0), "Z", 500, seed=3)
        direct_figures = tracer.take()
    finally:
        tracing.uninstall(replaced)

    for (command, _), taken in zip(commands, figures):
        assert taken["hamiltonian.exact_diagonalize.calls"] >= 1, command.__name__
        assert taken["hamiltonian.exact_diagonalize.self_s"] > 0, command.__name__
    with open(tmp_path / "pair_refinement.csv", newline="") as handle:
        passes = len(list(csv.reader(handle))) - 1
    assert passes > 0
    assert figures[2]["filtering.passes"] == passes
    assert 0.0 < figures[2]["filtering.postselect_p_mean"] <= 1.0
    assert direct_figures["estimation.shots_drawn"] == direct.shots == 500
    assert sorted(p.name for p in BENCH.iterdir()) == listing
