"""What one command computed, counted and noted as it runs.

A command makes one ``_Counters`` and passes it down to every layer that
does countable work; the command writes its counts to its manifest as
``counters``, what it noted as ``diagnostics`` and the wall time of its
stages as ``stages``.  No layer keeps counts of its own.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass, field
from typing import Iterator

_DIAGNOSTICS = ("min_ramp_gap", "min_ramp_gap_s")
_STAGES = ("ramp", "hold", "filter", "estimation", "writing")


@dataclass
class _Counters:
    """One command's work, written to its manifest as ``counters``.

    ``matrices_diagonalized`` counts the matrices that go through ``eigh``
    and ``diagonalized_d3`` their summed d^3; ``steps`` counts the time steps
    evolved, ramp and hold, whether a hold is stepped or taken in closed
    form.  ``streams`` counts the shot streams opened, so it is also the
    number of the next one; ``estimates`` counts the sampled values (rows
    times terms) and ``shots_drawn`` their shots.  Exact estimation leaves
    those three at zero.  ``dense_bytes`` counts the bytes of the dense
    matrix stacks built, and ``filter_passes`` the passes of ``refine``.
    The ramp operators of 7 qubits and more are built but not diagonalized:
    ``krylov_products`` counts the block products, with a d x 2 block each,
    that took their two lowest levels and ground vectors, and
    ``chebyshev_terms`` the terms of their Chebyshev steps, one product
    with a vector each.

    ``min_ramp_gap`` and ``min_ramp_gap_s`` are diagnostics, not counts:
    the smallest gap between the two lowest levels of any ramp operator,
    and the s of the first operator that has it; None without a ramp.
    ``diagonalization_workers`` is the most threads that diagonalized
    stacks of the command at once, written at the manifest's top level.
    ``stages`` holds the seconds spent in each stage of the command
    (``stage``): the ramp, the hold, the filter, estimation from the
    recorded states and writing the data files; a stage the command does
    not run stays at zero.
    """

    diagonalization_workers: int = 0
    matrices_diagonalized: int = 0
    diagonalized_d3: int = 0
    steps: int = 0
    streams: int = 0
    estimates: int = 0
    shots_drawn: int = 0
    dense_bytes: int = 0
    filter_passes: int = 0
    chebyshev_terms: int = 0
    krylov_products: int = 0
    min_ramp_gap: float | None = None
    min_ramp_gap_s: float | None = None
    stages: dict[str, float] = field(default_factory=lambda: dict.fromkeys(_STAGES, 0.0))

    def note_gap(self, gap: float, s: float) -> None:
        """Keep ``gap`` at ``s`` when it is below every gap noted before."""
        if self.min_ramp_gap is None or gap < self.min_ramp_gap:
            self.min_ramp_gap, self.min_ramp_gap_s = gap, s

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Add the wall time of the block to stage ``name``, however the block ends."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] += time.perf_counter() - started

    def sections(self) -> dict:
        """The manifest's ``diagonalization_workers`` and its three sections.

        The sections are ``counters``, ``diagnostics`` and ``stages``.
        """
        counts = asdict(self)
        workers = counts.pop("diagonalization_workers")
        stages = counts.pop("stages")
        diagnostics = {name: counts.pop(name) for name in _DIAGNOSTICS}
        return {
            "diagonalization_workers": workers,
            "counters": counts,
            "diagnostics": diagnostics,
            "stages": stages,
        }
