import pytest

from apolar import SplitMix64


def test_below_the_full_64_bit_range_is_one_raw_draw():
    stream, reference = SplitMix64(5), SplitMix64(5)
    assert [stream.below(2**64) for _ in range(4)] == [reference.next_u64() for _ in range(4)]


def test_below_rejects_a_range_past_one_draw():
    with pytest.raises(ValueError):
        SplitMix64(0).below(2**64 + 1)
    with pytest.raises(ValueError):
        SplitMix64(0).randint(-(2**63), 2**63)
