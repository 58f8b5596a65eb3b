"""The three failures of the row-repair core shared by the t-row decoders.

Each received word below lies outside its code's model and was found by a
seeded search over corrupted codewords.  The core ends each one in a
DecodeFailure: too few intact syndrome blocks for the rows to repair, a
solved residue at or above the lift bound (span for c2s, qm for c4d), and a
repaired word with an invalid column.
"""

import pytest

from composite_dna._codec import RowCode, repair_rows
from composite_dna.channel import ReceivedRows
from composite_dna.codes_deletion import C4DSpec, c4d_decode
from composite_dna.codes_substitution import C2SSpec, c2s_decode
from composite_dna.vt_core import DecodeFailure

C2S = C2SSpec(2, 3, 2, 3)  # span 6, p 7
C4D = C4DSpec(3, 3, 2, 6)  # qm 18, p 19


def received(rows, spec):
    return ReceivedRows([[int(d) for d in row] for row in rows], spec.q, spec.n)


@pytest.mark.parametrize(
    "rows, message",
    [
        # payload rows 0 and 1 are dirty and block 0 fails its parity on row 2
        (
            ["1101111000000000001", "0101111000000001001", "1111111000000010001"],
            "fewer intact syndrome blocks than dirty rows",
        ),
        (
            ["1001111110000100001", "1101111110000100001", "1001101111000110001"],
            "solved syndrome residue does not lift",
        ),
        (
            ["1111100110000000001", "1011100110000000001", "1111100110000001001"],
            "column 1 is not nondecreasing",
        ),
    ],
)
def test_c2s_core_failures_are_typed(rows, message):
    assert (C2S.span, C2S.p) == (6, 7)
    with pytest.raises(DecodeFailure, match=message):
        c2s_decode(received(rows, C2S), C2S)


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            ["0000001000100", "0020001000100", "11220201200110"],
            "solved syndrome residue does not lift",
        ),
        (
            ["0010001000110", "00020001200120", "0202001210121"],
            "column 0 is not nondecreasing",
        ),
    ],
)
def test_c4d_core_failures_are_typed(rows, message):
    assert (C4D.q * C4D.m, C4D.p) == (18, 19)
    with pytest.raises(DecodeFailure, match=message):
        c4d_decode(received(rows, C4D), C4D)


def test_too_few_usable_blocks_is_typed_for_marker_shapes():
    # c4d cannot get here: each of its at most t short rows either needs the
    # solve or blocks one syndrome block, so the usable blocks always suffice;
    # the core still fails typed when called with fewer, as a c4d decode would
    rows = [None, None, (0, 1, 2)]
    with pytest.raises(DecodeFailure, match="fewer intact syndrome blocks"):
        repair_rows(
            rows, C4D.q, [0, 1], [1], lambda j: 0, RowCode(sum, C4D.p, C4D.q * C4D.m),
            lambda i, value: (0, 0, 0),
        )
