"""The benchmark tracer's observers still read what the package returns.

``bench/tracing.py`` wraps package functions and reads their arguments
and results (``success_probability``, ``steps``, ``shots``) to derive
per-layer figures.  ``test_bench_names.py`` checks that the traced names
exist; this runs two shipped configs and one direct call under the
tracer and checks the figures its observers derive.  The tracer is
loaded from its file without writing bytecode, so nothing under
``bench/`` is written.
"""

from __future__ import annotations

import csv
import importlib.util
import sys
from pathlib import Path

import vacuum_refine as vr
from vacuum_refine.config import with_overrides

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
    refine = with_overrides(
        vr.load_config(str(ROOT / "configs/pair_refine.cfg")), out=str(tmp_path / "pair")
    )
    shots = with_overrides(
        vr.load_config(str(ROOT / "configs/benchmark_shots.cfg")), out=str(tmp_path / "shots")
    )
    replaced = tracing.install(tracer)
    try:
        vr.cmd_refine(refine)
        vr.cmd_filter_run(shots)
        direct = vr.shot_expectation(vr.basis_state(1, 0), "Z", 500, seed=3)
    finally:
        tracing.uninstall(replaced)
    figures = tracer.take()

    with open(tmp_path / "pair_refinement.csv", newline="") as handle:
        passes = len(list(csv.reader(handle))) - 1
    assert passes > 0
    assert figures["filtering.passes"] == passes
    assert 0.0 < figures["filtering.postselect_p_mean"] <= 1.0
    assert figures["estimation.shots_drawn"] == direct.shots == 500
    assert sorted(p.name for p in BENCH.iterdir()) == listing
