"""The three streaming strategies (Section 3)."""

from __future__ import annotations

from enum import Enum

#: Block-size boundary between short and long ON-OFF cycles (Section 3):
#: ON periods moving more than 2.5 MB make a cycle "long".
LONG_BLOCK_THRESHOLD = int(2.5 * 1024 * 1024)


class StreamingStrategy(Enum):
    """How the data transfer rate is limited in the steady state."""

    NO_ONOFF = "No"          # bulk TCP transfer, no steady state at all
    SHORT_ONOFF = "Short"    # periodic blocks < 2.5 MB
    LONG_ONOFF = "Long"      # periodic blocks > 2.5 MB
    MIXED = "Multiple"       # the iPad case: strategy varies in-session

    def __str__(self) -> str:
        return self.value

    @property
    def has_steady_state(self) -> bool:
        return self is not StreamingStrategy.NO_ONOFF
