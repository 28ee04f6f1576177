"""Solaris time-sharing (TS) class dispatch table.

"Not only user-level threads has a priority level, but also the LWPs.  The
priority of an LWP is set by the operating system and is adjusted during
run-time ...  The length of a time slice for an LWP is related to the
priority level, thus we also adjust the time slice length during our
simulation."  (§3.2)

This module models the Solaris 2.5 TS dispatcher parameter table
(``ts_dptbl``).  Each of the 60 priority levels (0 = worst, 59 = best)
carries:

``quantum``   — the time slice granted at this level (lower priority ⇒
longer slice: 200 ms at level 0 down to 20 ms at 59, the classic default);
``tqexp``     — the level an LWP drops to when it uses up its quantum;
``slpret``    — the (boosted) level an LWP gets when it returns from sleep;
``maxwait``   — seconds an LWP may starve on the run queue before being
lifted to ``lwait``.

The concrete numbers follow the shape of the stock Solaris table; the exact
stock values differ slightly between releases, so the table here is
generated from the canonical rules and can be replaced wholesale via
:meth:`DispatchTable.custom`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.timebase import US_PER_MS, US_PER_SECOND

__all__ = ["DispatchEntry", "DispatchTable", "TS_LEVELS"]

#: Number of TS-class priority levels (0..59).
TS_LEVELS = 60


@dataclass(frozen=True, slots=True)
class DispatchEntry:
    """One row of the dispatch table (all times in µs)."""

    quantum_us: int
    tqexp: int
    slpret: int
    maxwait_us: int
    lwait: int

    def __post_init__(self) -> None:
        if self.quantum_us <= 0:
            raise ValueError("quantum must be positive")
        for name in ("tqexp", "slpret", "lwait"):
            level = getattr(self, name)
            if not 0 <= level < TS_LEVELS:
                raise ValueError(f"{name} out of range: {level}")


class DispatchTable:
    """The TS dispatch table plus the priority-adjustment rules.

    Use :meth:`classic` for the Solaris-2.5-shaped default, or
    :meth:`custom` to supply explicit rows (ablation experiments).
    A table is immutable and compares (and hashes) by its rows, so two
    configurations built apart compare equal when their rows do.
    """

    def __init__(self, entries: Sequence[DispatchEntry]):
        if len(entries) != TS_LEVELS:
            raise ValueError(f"dispatch table needs {TS_LEVELS} rows, got {len(entries)}")
        self._entries: Tuple[DispatchEntry, ...] = tuple(entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DispatchTable):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def classic(cls) -> "DispatchTable":
        """The classic Solaris TS table shape.

        Quanta descend in 40 ms steps per decade of priority: levels 0-9
        get 200 ms, 10-19 get 160 ms, ..., 50-59 get 20 ms.  Quantum expiry
        drops an LWP ten levels (floored at 0); sleep return boosts it into
        the upper half (level+10, capped at 59); an LWP that has waited a
        second without running is lifted the same way.  Every classic
        table shares one tuple of rows, built at import.
        """
        return cls(_CLASSIC_ROWS)

    @classmethod
    def fixed_quantum(cls, quantum_us: int) -> "DispatchTable":
        """Degenerate table: every level gets the same quantum and no
        priority adjustment.  Handy for unit tests and round-robin
        ablations."""
        entries = [
            DispatchEntry(
                quantum_us=quantum_us,
                tqexp=level,
                slpret=level,
                maxwait_us=US_PER_SECOND,
                lwait=level,
            )
            for level in range(TS_LEVELS)
        ]
        return cls(entries)

    @classmethod
    def custom(cls, entries: Sequence[DispatchEntry]) -> "DispatchTable":
        return cls(entries)

    # ------------------------------------------------------------------
    # lookups / rules
    # ------------------------------------------------------------------

    def entry(self, level: int) -> DispatchEntry:
        return self._entries[self._clamp(level)]

    def entries(self) -> Sequence[DispatchEntry]:
        """All rows, level 0 first (read-only view for serialisation)."""
        return self._entries

    def quantum_us(self, level: int) -> int:
        """Time slice for an LWP running at *level*."""
        return self.entry(level).quantum_us

    def after_quantum_expiry(self, level: int) -> int:
        """New priority after the LWP used up its whole quantum (CPU hog
        penalty — it sinks towards the long-quantum levels)."""
        return self.entry(level).tqexp

    def after_sleep(self, level: int) -> int:
        """New priority when an LWP wakes from sleep (interactivity boost)."""
        return self.entry(level).slpret

    def after_starvation(self, level: int) -> int:
        """New priority when the LWP starved past ``maxwait`` on the queue."""
        return self.entry(level).lwait

    def maxwait_us(self, level: int) -> int:
        return self.entry(level).maxwait_us

    @staticmethod
    def _clamp(level: int) -> int:
        return max(0, min(TS_LEVELS - 1, level))

    @staticmethod
    def initial_level() -> int:
        """Starting TS priority for a new LWP (mid-table, like ts_upri 0)."""
        return 29


_CLASSIC_ROWS: Tuple[DispatchEntry, ...] = tuple(
    DispatchEntry(
        quantum_us=max(20, 200 - 40 * (level // 10)) * US_PER_MS,
        tqexp=max(0, level - 10),
        slpret=min(TS_LEVELS - 1, level + 10),
        maxwait_us=US_PER_SECOND,
        lwait=min(TS_LEVELS - 1, level + 10),
    )
    for level in range(TS_LEVELS)
)
