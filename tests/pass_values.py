"""The per-SYT values that the enumeration pass counts, read off the
enumerator's own walk (`enumeration._fillings`) through `STATISTICS`, one
value per SYT in enumeration order.  Tests that check values SYT by SYT
read them here; `counted` turns them into the counters that
`statistic_counts` returns."""

from collections import Counter

import tabinv.enumeration as enumeration
from tabinv.enumeration import STATISTICS

# The cells that pin a skew shape's classes: that of n and that of 1, and
# (0, 0) on a shape with no cells.
PINS = {
    "cell_n": lambda pos: pos[-1],
    "cell_1": lambda pos: pos[min(len(pos) - 1, 1)],
}
# The pin of each statistic's classes, as equidistribution_report pairs them.
PINNED_BY = {"inv": "cell_n", "maj": "cell_n", "cinv": "cell_1", "comaj": "cell_1"}


def pass_values(s, names=(*STATISTICS, *PINS), prefix=()):
    """Each named statistic of STATISTICS or pin of PINS over the fillings
    of `enumeration._fillings(s, prefix)`, as a list in enumeration order."""
    values = {name: [] for name in names}
    for _, pos, maj, comaj in enumeration._fillings(s, prefix):
        for name, column in values.items():
            column.append(PINS[name](pos) if name in PINS else STATISTICS[name](s, pos, maj, comaj))
    return values


def counted(s, values):
    """The counter of each statistic in `values` (per-SYT lists keyed by
    name, holding the pins too on a skew shape): its values on a straight
    shape, its (pinned cell, value) pairs on a skew one."""
    return {
        name: Counter(column if s.is_straight else zip(values[PINNED_BY[name]], column))
        for name, column in values.items()
        if name in STATISTICS
    }
