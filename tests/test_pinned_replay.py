"""The open-loop flatness replay pinned exactly against values recorded at
commit bbbc33a, where ``integrate_vertical_tabulated`` stepped
``rk4_flat`` over ``vertical_rhs``.  The tabulated step may be rewritten,
but only in ways that keep every floating-point operation of that step.

The replay takes the first 0.5 s of case a's plan at the acceptance-04
settings: the inputs tabulated on the half-step grid of dt = 1e-4 and
reintegrated with the explicit rudder.  The table was printed at that
commit by the file's own recorder, which planned case a.  The recording
command is now

    PYTHONPATH=src python tests/pins.py record OUT.npz

which prints the table under ``# test_pinned_replay.py PINNED``, built by
``pins.replay_summary``.  The test reads the session fixture, so it adds no
planning time.
"""

from pins import replay_summary


PINNED = {
    "final_state": [
        0.07657615916274145, 0.07657615916274144, -0.03878980075736529,
        0.5516796593635885, 7.888609052210118e-31, -0.16366017943780126,
        0.7853981633974483, 0.0,
    ],
    "max_abs": [
        0.07657615916274145, 0.07657615916274144, 0.03878980075736529,
        0.5516796593635885, 7.888609052210118e-31, 0.16366017943780126,
        0.7853981633974483, 0.0,
    ],
}


def test_replay_matches_recorded_values(case_a):
    assert replay_summary(case_a.traj) == PINNED
