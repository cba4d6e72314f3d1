"""What one command computed, counted as it runs.

A command makes one ``_Counters`` and passes it down to every layer that
does countable work; the command writes it to its manifest as
``counters``.  No layer keeps counts of its own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _Counters:
    """One command's work, written to its manifest as ``counters``.

    ``matrices_diagonalized`` counts the dense eigendecompositions and
    ``diagonalized_d3`` their summed d^3; ``steps`` counts the time steps
    evolved, ramp and hold, whether a hold is stepped or taken in closed
    form.  ``streams`` counts the shot streams opened, so it is also the
    number of the next one; ``estimates`` counts the sampled values (rows
    times terms) and ``shots_drawn`` their shots.  Exact estimation leaves
    the last three at zero.
    """

    matrices_diagonalized: int = 0
    diagonalized_d3: int = 0
    steps: int = 0
    streams: int = 0
    estimates: int = 0
    shots_drawn: int = 0
