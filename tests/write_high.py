"""The 14-member level set used across the test suite.

Fixed fixture: the instruction pairs of an 8-state, 4-symbol machine whose
written symbol has its high bit set.  Frozen as data so tests never depend
on reconstructing the machine behind it.
"""

from dynls.bitcore import BoolFn
from dynls.tm import instruction_index

_WRITE_HIGH_PAIRS = (
    (7, 0),
    (6, 0), (6, 1), (6, 2),
    (5, 0), (5, 1), (5, 2),
    (4, 0), (4, 2),
    (3, 1), (3, 2),
    (2, 3), (2, 1), (2, 0),
)


def reference_write_high_set() -> frozenset[tuple[int, int]]:
    return frozenset(_WRITE_HIGH_PAIRS)


def reference_write_high_indicator() -> BoolFn:
    """Indicator of the fixture set on the packed 5-bit domain."""
    hot = {instruction_index(q, a) for q, a in _WRITE_HIGH_PAIRS}
    return BoolFn(5, tuple(int(x in hot) for x in range(32)))
