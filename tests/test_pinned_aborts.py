"""Three aborted closed-loop flights pinned exactly against values recorded at
commit 1374b15, where the closed loop ran one ``rk4_flat`` step at a time
and checked every step.  An abort must keep its time, its logged rows and
its last row:

* ``vertical_radius``: the position norm passes ``divergence_radius`` in the
  middle of a controller tick's block of plant steps;
* ``vertical_non_finite``: a 3 km/s forward start overflows the quadratic
  drag in the middle of a block; the non-finite state is logged;
* ``full_stage``: a non-finite RK4 stage of the full model ends the run in
  the middle of a block, and its step is not logged.

The table was printed at that commit by the file's own recorder.  The
recording command is now

    PYTHONPATH=src python tests/pins.py record OUT.npz

which prints the table under ``# test_pinned_aborts.py PINNED``, from the
flights ``pins.fly_abort`` flies.
"""

import math

import numpy as np
import pytest

from pins import ABORTS, abort_summary, fly_abort

inf = math.inf
PINNED = {
    "full_stage": {
        "abort_time": 0.002, "diverged": True, "rows": 2, "ticks": 1,
        "last_row": [
            -7.193285456412009e+19, 0.0, 3.685820232586696, 1.7511011817549903e+43,
            2.4140904422335315e+42, -6.605745767207291e+39, 0.9999969857090661,
            0.0024104383883575193, 0.0002931355646127711, 0.0003639108385798445,
            2.280816217109105e+41, -1.8969562833208305e+42, 1.7833710604402363e+40,
            37138.52494480333, 0.0031066877251802617, -0.015533438625901308,
        ],
    },
    "vertical_non_finite": {
        "abort_time": 0.026000000000000002, "diverged": True, "rows": 27, "ticks": 3,
        "last_row": [
            -6.1608531822465416e+206, -1.3246240414179116e+203, -6.328583490162575e-05, inf,
            0.0, -0.00478695472820243, 0.00021500658541913933, -0.01580333657931044,
        ],
    },
    "vertical_radius": {
        "abort_time": 0.056, "diverged": True, "rows": 57, "ticks": 6,
        "last_row": [
            1.0003061042438772, 6.514819011530077e-05, -0.0002822554949460805,
            0.795771006143644, 0.0, -0.009695134190532532, 0.004119889720792797,
            0.1471631607056111,
        ],
    },
}


@pytest.mark.parametrize("key", sorted(ABORTS))
def test_abort_matches_recorded_values(key):
    got, want = abort_summary(fly_abort(key)), dict(PINNED[key])
    np.testing.assert_array_equal(got.pop("last_row"), want.pop("last_row"))
    assert got == want
