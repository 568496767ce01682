"""The four demonstration plans pinned to 1e-12 relative against values
recorded at commit 6359553 (inexact penalty stages, one L-BFGS-B call per
stage with ``jac=True``).  The penalty evaluation may be restructured, but
only in ways that leave every plan's objective, winning restart and
coefficients where they were.

The table was printed at that commit by the file's own recorder, which
planned the four cases at their default options (seed 0).  The recording
command is now

    PYTHONPATH=src python tests/pins.py record OUT.npz

which prints this table under ``# test_pinned_plans.py PINNED``, built by
``pins.plan_summary``.  The tests read the session fixtures, so they add no
planning time.
"""

import numpy as np
import pytest

from pins import CASES, plan_summary

RTOL = 1e-12


PINNED = {"a": {"coeffs": [[[0.0, 8.220053272150366e-15, -1.4159707972884034e-16, 0.9382925279693859,
                             -0.7531073427842032, 0.21399874389103107, -0.021034153985148876],
                            [0.0, 8.220053272150366e-15, -1.4159707972884034e-16, 0.9382925279693859,
                             -0.7531073427842032, 0.21399874389103107, -0.021034153985148876],
                            [0.0, -1.486321123883591e-14, 2.560308597928727e-16, -0.6565265019660136,
                             0.8417116871512025, -0.3176075994207717, 0.038033217493940355]]],
                "objective": 549.0620436113403,
                "restart_index": 0},
          "b": {"coeffs": [[[0.0, 1.4093252629822054e-23, 1.1970008935871818e-23, -6.976453222708187e-10,
                             7.468682757147565e-10, -2.6103941795180486e-10, 2.982002531244702e-11],
                            [0.0, -3.8666522814681043e-16, -6.249380200025181e-16, 0.10442654880914444,
                             -0.008142143433259042, -0.006611931311355572, 0.00096802400073601],
                            [0.0, -7.248974127592661e-16, -1.173215192629391e-15, 0.07377037465398978,
                             -0.011434583465528723, -0.0052913888206060945, 0.0009692433800243174]],
                           [[-3.38734779313843e-11, -4.1801728905153976e-10, -1.9723310420469247e-10,
                             8.740400393652098e-10, -5.814572187779219e-10, 1.52151103737332e-10,
                             -1.4280852218234021e-11],
                            [1.258993387630059, 0.6737121390290168, -0.10890909928543918,
                             -0.06562003001451952, 0.02592652848479518, -0.0025670371205783037,
                             -6.126046260642956e-06],
                            [0.48636979558033255, 0.027009477110603967, -0.20457841008674063,
                             -0.01627819557377078, 0.052591811594275485, -0.013003612361380985,
                             0.0008412343059528153]]],
                "objective": 3.054707255545226,
                "restart_index": 7},
          "c": {"coeffs": [[[1.5, 1.4405804587703675e-18, 1.6236974414968763e-18, -1.2356758220695852,
                             0.7883435310799771, -0.17355863243326278, 0.012938503236877235],
                            [0.0, -6.34777893991124e-20, 3.9529205521542036e-19, -0.05197245019559004,
                             0.17029212072724476, -0.06678824116366008, 0.007048251145157976],
                            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
                           [[-0.7499999999999933, 0.35094574465432987, 0.30891895551739296,
                             -0.4090386201897995, 0.17242702552191919, -0.041701568862779474,
                             0.004633507651419768],
                            [1.2990381056766576, 0.21540538161949363, -0.7411775053103794,
                             -0.21335308781275397, 0.18902960005197642, -0.025203946673597644,
                             1.4929270299707655e-16],
                            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
                           [[-0.7500000000000027, -0.3509457446542918, 0.3089189555173934, 0.409038620189753,
                             -0.06833801844049871, -0.05933442583053896, 0.01293850323687842],
                            [-1.2990381056766576, 0.2154053816194886, 0.741177505310379, -0.2133530878127442,
                             -0.11998240786867895, 0.06008027944918618, -0.007048251145158262],
                            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]],
                "objective": 338.5422173872766,
                "restart_index": 0},
          "line": {"coeffs": [[[0.0, 0.5, 3.28429327576129e-47, -3.083952846180998e-17,
                                1.541976423090501e-17, -2.0559685641206744e-18, 1.120720386111098e-33],
                               [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]],
                   "objective": 0.15000000600000002,
                   "restart_index": 0}}


@pytest.mark.parametrize("case", CASES)
def test_plan_matches_recorded_values(request, case):
    planned = request.getfixturevalue(f"case_{case}")
    got = plan_summary(planned.traj, planned.report)
    want = PINNED[case]
    assert got["restart_index"] == want["restart_index"]
    assert got["objective"] == pytest.approx(want["objective"], rel=RTOL, abs=0.0)
    # relative to each coefficient, floored at the plan's scale so that
    # coefficients at rounding level need not match to their own precision
    coeffs = np.array(want["coeffs"])
    np.testing.assert_allclose(
        got["coeffs"], coeffs, rtol=RTOL, atol=RTOL * np.max(np.abs(coeffs))
    )
