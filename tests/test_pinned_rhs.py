"""``vertical_rhs`` pinned bit for bit against values recorded at commit
07bf3c3, where one function, ``_vertical_law``, held all eight rows of the
vertical model.  The bit-for-bit tests of the steppers use ``rk4_flat``
over ``vertical_rhs`` as their oracle, so a drift in ``vertical_rhs``
would move both sides of those comparisons; this table does not move.

Every row is evaluated in both rudder modes: the tilt proxy and the wind
vane ("explicit-rudder", the rudder at neutral).  The rows include signed
zeros in the state and the input, azimuths far from [-pi, pi] and a zero
flapping frequency.  The table was printed by

    PYTHONPATH=src python tests/test_pinned_rhs.py

run in a checkout of that commit.  There an input row carried a fifth
float, the rudder deflection theta_rud, and the model had a second lateral
law, "free".  The gamma-proxy rows read no theta_rud and are those of the
frozen lateral law as first recorded.  The explicit-rudder rows were
re-recorded with the same command in a checkout of 07bf3c3, with every
row's theta_rud set to +0.0, when the rudder deflection left the input row:
the wind vane is that law with the rudder at neutral.
"""

import math

import numpy as np
import pytest

from flapkit.dynamics import VerticalParams, vertical_rhs


def unit(gx, gy) -> tuple:
    """A unit reduced attitude with the given gx and gy and gz > 0."""
    return gx, gy, math.sqrt(1.0 - gx * gx - gy * gy)


# (state row, input row (gx, gy, gz, fflap))
ROWS = [
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], (0.0, 0.0, 1.0, 15.08)),
    ([-0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0], (-0.0, -0.0, 1.0, 0.0)),
    ([0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0], (0.0, -0.0, 1.0, 12.0)),
    ([0.3, -0.2, 1.1, 0.8, -0.15, 0.4, 0.7, -1.3], (*unit(0.2, -0.3), 14.0)),
    ([-1.0, 2.0, -0.5, -1.2, 0.35, -0.9, -2.9, 2.4], (*unit(-0.4, 0.1), 18.5)),
    ([0.0, 0.0, 0.0, 2.5, -0.0, -3.0, 40.0, 0.0], (*unit(-0.0, 0.35), 9.0)),
    ([5.0, -5.0, 2.0, -0.0, 1.5, 0.0, -1e3, -0.0], (*unit(0.6, -0.0), 0.0)),
    ([0.0, 0.0, 0.0, 0.05, 0.02, -0.01, math.pi / 2, 6.0], (*unit(0.1, 0.5), 22.0)),
]

MODES = ["gamma-proxy", "explicit-rudder"]


def record() -> dict:
    return {mode: [list(vertical_rhs(state, u, VerticalParams(), mode)) for state, u in ROWS]
            for mode in MODES}


def bits(rows) -> np.ndarray:
    return np.array(rows, dtype=float).view(np.int64)


PINNED = {
    "gamma-proxy": [
        [0.0, 0.0, 0.0, -0.0,
         0.0, -0.008000000000000895, 0.0, -0.0],
        [-0.0, 0.0, 0.0, 0.0,
         0.0, -9.81, -0.0, 0.0],
        [0.0, 0.0, -0.0, 0.0,
         0.0, -3.6031034482758635, 0.0, 0.0],
        [0.7085064029132444, 0.4006478216974796, 0.4, -2.268655172413793,
         0.0, -1.9520418344594512, -1.3, 3.990699329929734],
        [1.2488870634044025, -0.0527361627455778, -0.9, 5.924862068965517,
         0.0, 3.741577122681621, 2.4, -4.134327535477282],
        [-1.6673451541306548, 1.862782901198372, -3.0, -3.749999999999999,
         0.0, -5.298072168942219, 0.0, -0.01841123929135109],
        [1.2403193107980037, 0.8435686144360544, 0.0, 0.0,
         0.0, -9.81, -0.0, 0.0],
        [-0.019999999999999997, 0.05, -0.01, -2.207706896551724,
         0.0, 8.136244091588926, 6.0, -26.890551287745893],
    ],
    "explicit-rudder": [
        [0.0, 0.0, 0.0, -0.0,
         0.0, -0.008000000000000895, 0.0, 0.0],
        [-0.0, 0.0, 0.0, 0.0,
         0.0, -9.81, -0.0, 0.0],
        [0.0, 0.0, -0.0, 0.0,
         0.0, -3.6031034482758635, 0.0, -0.0],
        [0.7085064029132444, 0.4006478216974796, 0.4, -2.268655172413793,
         0.0, -1.9520418344594512, -1.3, -3.1640000000000006],
        [1.2488870634044025, -0.0527361627455778, -0.9, 5.924862068965517,
         0.0, 3.741577122681621, 2.4, -5.183999999999999],
        [-1.6673451541306548, 1.862782901198372, -3.0, -3.749999999999999,
         0.0, -5.298072168942219, 0.0, 43.75],
        [1.2403193107980037, 0.8435686144360544, 0.0, 0.0,
         0.0, -9.81, -0.0, 0.0],
        [-0.019999999999999997, 0.05, -0.01, -2.207706896551724,
         0.0, 8.136244091588926, 6.0, -14.375],
    ],
}


@pytest.mark.parametrize("mode", MODES)
def test_vertical_rhs_matches_recorded_values(mode):
    # compared as bits, so that a signed zero must keep its sign
    assert np.array_equal(bits(record()[mode]), bits(PINNED[mode]))


if __name__ == "__main__":
    import pprint

    pprint.pprint(record(), width=100)
