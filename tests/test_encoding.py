"""The one entry codec: round trips, the byte layout and its limits."""

import random
import struct

import pytest

from czorbits.encoding import BIAS, pack_values, unpack_values


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_codec(n):
    rng = random.Random(n)
    values = []
    for _ in range(n):
        values += [rng.randint(-BIAS, BIAS - 1) for _ in range(4)] + [rng.randint(0, 40)]
    values[:5] = [-BIAS, BIAS - 1, 0, -1, 0]
    data = pack_values(values)
    assert unpack_values(data) == values
    # five big-endian words per entry, the coefficients biased by 2^31
    words = [v + BIAS if i % 5 < 4 else v for i, v in enumerate(values)]
    assert data == struct.pack(f">{5 * n}I", *words)
    for bad in ([BIAS, 0, 0, 0, 0], [0, 0, 0, 0, -1]):
        with pytest.raises(AssertionError):
            pack_values(bad + values[5:])
    with pytest.raises(ValueError):
        pack_values([0] * 15)  # three entries
    with pytest.raises(ValueError):
        pack_values(values + [0])
    with pytest.raises(ValueError):
        unpack_values(bytes(21))
    with pytest.raises(ValueError):
        unpack_values(data + bytes(1))
