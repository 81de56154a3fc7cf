"""32-bit TCP sequence-number arithmetic.

Internally the simulator uses *unwrapped* (unbounded) sequence numbers so
ordinary integer comparisons work; the wire/pcap layer wraps them modulo
2**32.  Reading pcap files that may have been produced by real stacks
means recovering monotonically increasing byte offsets from wrapped
sequence numbers: the analysis's trace builder sums each flow's signed
32-bit sequence steps, a whole column at once.
"""

from __future__ import annotations

SEQ_MOD = 1 << 32
HALF_MOD = 1 << 31


def wrap(seq: int) -> int:
    """Fold an unwrapped sequence number onto the 32-bit wire space."""
    return seq % SEQ_MOD
