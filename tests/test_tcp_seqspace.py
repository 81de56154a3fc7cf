"""Tests for 32-bit sequence arithmetic."""

from repro.tcp import wrap

SEQ_MOD = 1 << 32


class TestWrap:
    def test_identity_below_mod(self):
        assert wrap(100) == 100

    def test_wraps_at_mod(self):
        assert wrap(SEQ_MOD) == 0
        assert wrap(SEQ_MOD + 5) == 5

    def test_negative_wraps(self):
        assert wrap(-1) == SEQ_MOD - 1
