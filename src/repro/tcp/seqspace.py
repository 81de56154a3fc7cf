"""32-bit TCP sequence-number arithmetic.

Internally the simulator uses *unwrapped* (unbounded) sequence numbers so
ordinary integer comparisons work; the wire/pcap layer wraps them modulo
2**32.  Reading pcap files that may have been produced by real stacks
means recovering monotonically increasing byte offsets from wrapped
sequence numbers: :class:`SequenceUnwrapper` does it for one stream, and
the analysis's trace builder applies the same :func:`seq_diff` step to
each flow's whole sequence column at once.
"""

from __future__ import annotations

SEQ_MOD = 1 << 32
HALF_MOD = 1 << 31


def wrap(seq: int) -> int:
    """Fold an unwrapped sequence number onto the 32-bit wire space."""
    return seq % SEQ_MOD


def seq_lt(a: int, b: int) -> bool:
    """RFC 1982 serial comparison: is wrapped ``a`` before wrapped ``b``?"""
    return (a - b) % SEQ_MOD > HALF_MOD


def seq_leq(a: int, b: int) -> bool:
    """True when ``a <= b`` in 32-bit wrapping sequence space (RFC 1982)."""
    return a == b or seq_lt(a, b)


def seq_diff(a: int, b: int) -> int:
    """Signed distance from ``b`` to ``a`` on the wrapped circle."""
    d = (a - b) % SEQ_MOD
    return d - SEQ_MOD if d > HALF_MOD else d


class SequenceUnwrapper:
    """Recover unbounded sequence numbers from a wrapped 32-bit stream.

    Feed sequence numbers roughly in time order; each call returns the
    unwrapped value relative to the first number seen.  Tolerates
    out-of-order arrivals within half the sequence space.
    """

    def __init__(self) -> None:
        self._base: int = 0          # unwrapped value of the last sample
        self._last_wrapped: int = 0
        self._started = False

    def unwrap(self, seq: int) -> int:
        seq = seq % SEQ_MOD
        if not self._started:
            self._started = True
            self._base = seq
            self._last_wrapped = seq
            return seq
        delta = seq_diff(seq, self._last_wrapped)
        self._base += delta
        self._last_wrapped = seq
        return self._base

    @property
    def started(self) -> bool:
        return self._started
