"""What one command computed, counted and noted as it runs.

A command makes one ``_Counters`` and passes it down to every layer that
does countable work; the command writes its counts to its manifest as
``counters`` and what it noted as ``diagnostics``.  No layer keeps counts
of its own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

_DIAGNOSTICS = ("min_ramp_gap", "min_ramp_gap_s")


@dataclass
class _Counters:
    """One command's work, written to its manifest as ``counters``.

    ``matrices_diagonalized`` counts the dense eigendecompositions and
    ``diagonalized_d3`` their summed d^3; ``steps`` counts the time steps
    evolved, ramp and hold, whether a hold is stepped or taken in closed
    form.  ``streams`` counts the shot streams opened, so it is also the
    number of the next one; ``estimates`` counts the sampled values (rows
    times terms) and ``shots_drawn`` their shots.  Exact estimation leaves
    those three at zero.  ``dense_bytes`` counts the bytes of the dense
    matrix stacks built for diagonalization, and ``filter_passes`` the
    passes of ``refine``.

    ``min_ramp_gap`` and ``min_ramp_gap_s`` are diagnostics, not counts:
    the smallest gap between the two lowest levels of any ramp operator,
    and the s of the first operator that has it; None without a ramp.
    ``diagonalization_workers`` is the most threads that diagonalized
    stacks of the command at once, written at the manifest's top level.
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
    min_ramp_gap: float | None = None
    min_ramp_gap_s: float | None = None

    def note_gap(self, gap: float, s: float) -> None:
        """Keep ``gap`` at ``s`` when it is below every gap noted before."""
        if self.min_ramp_gap is None or gap < self.min_ramp_gap:
            self.min_ramp_gap, self.min_ramp_gap_s = gap, s

    def sections(self) -> dict:
        """The manifest's ``diagonalization_workers``, ``counters`` and ``diagnostics``."""
        counts = asdict(self)
        workers = counts.pop("diagonalization_workers")
        diagnostics = {name: counts.pop(name) for name in _DIAGNOSTICS}
        return {"diagonalization_workers": workers, "counters": counts, "diagnostics": diagnostics}
