"""Two closed-loop flights pinned to 1e-9 against values recorded at commit
0212c85, where the controller tick and the reference ran on small numpy
arrays.  The tick now runs on floats (tanh, the filter products and the
3-element sums round differently), which moves these flights by ~1e-12.

The ``PINNED`` table was printed at that commit by the file's own
recorder, which planned both cases and flew them.

That recorder also printed ``DIGESTS``: the sha256 of the state
and control logs of four full-model flights and of one ``simulate_full``
run, recorded at commit b06346b, where the full plant stepped ``rk4_flat``
on ``full_rhs``, and of two ``simulate_vertical`` runs (one per rudder
mode), recorded at commit 57bb71a, before the dataclass state views were
deleted.  These are exact pins, not tolerances.  The ``simulate_full``
digest was re-recorded, with that recorder, when ``simulate_full`` began
to read its commands once per half-step time j dt/2 (the end of one step and
the start of the next share the sample at (k + 1) dt, not two samples at
times one rounding apart): its states moved by at most 6.9e-18.
``simulate_full`` is now the tests' own oracle, ``helpers.simulate_full``
(``rk4_flat`` on ``full_rhs``, then the quaternion projection, over that
half-step table); the package flies the full model only in the closed loop,
which the four flight digests pin.

The explicit-rudder run's digest was re-recorded at 57bb71a, by the same
``simulate_vertical`` run written for that commit's dataclass views, when
the rudder deflection left the input row and the model kept one lateral
law: there the run had flown a rudder schedule 0.02 sin(3 t) under the
"free" lateral law, and it was re-recorded with the rudder at +0.0 and the
lateral velocity frozen, the law the wind vane now is.

The recording command is now

    PYTHONPATH=src python tests/pins.py record OUT.npz

which prints both tables, under ``# test_pinned_flights.py PINNED`` and
``# test_pinned_flights.py DIGESTS``, from the flights and runs ``pins``
builds.
"""

import numpy as np
import pytest

from pins import (
    FLIGHTS,
    FULL_FLIGHTS,
    VERTICAL_RUNS,
    digest,
    fixture_plans,
    flight_summary,
    fly,
    fly_full,
    simulate_varying,
    simulate_vertical_varying,
)

TOL = 1e-9


PINNED = {
    "c_vertical": {
        "final_state": [
            1.5587281436587967, -0.13499069637236452, -0.02370009224612583,
            -0.15557622426055456, 9.517415615678218e-20, -0.00010116064077307914,
            -12.566330792504983, 0.4686860058804542,
        ],
        "control_max_abs": [
            0.38410936137679635, 0.38803889717620776, 0.04, 0.8307328185309288,
            0.7396940307412225, 0.0641666309166811, 3.141071152613575, 1.0,
            4.121312616662697, 0.2, 15.758080747191556, 0.30765802027012457,
            0.010019392962532249, 0.3434891430168766, 6.502751230880596,
        ],
        "control_rms": [
            0.1278572403127204, 0.1780551522874317, 0.021566286441117567,
            0.23965060225620727, 0.2780312959029325, 0.02485393952835495,
            1.9956416721408698, 1.0, 2.0175777968873145, 0.1921864874756065,
            15.354436973774861, 0.08645298450544725, 0.0027085307741997367,
            0.1038670875999037, 1.3819731055919047,
        ],
        "jumps": 6,
        "ff_saturations": 106,
    },
    "line_full": {
        "final_state": [
            1.5078750960455198, 0.03758014812262845, -0.027304195091407513,
            0.4953152200444898, -0.7165717882734363, 0.023692995219965093,
            0.9940138001215234, 0.10883442438451586, 0.006392847505106034,
            0.007124937728544773, 0.24280861657681144, 0.020963213225647797,
            0.019251972912149088, 15.26208621085524, 0.03858389668310073,
            -0.000945495218162242,
        ],
        "control_max_abs": [
            0.008718523471175077, 0.20506742985475632, 0.02909725953658631,
            0.02218356670417898, 0.6925545790848815, 0.08535966702537101,
            3.141592653589793, 1.0, 4.121320343559643, 0.2, 15.459041661465779,
            0.3904840317790706, 0.012438850694851586, 0.13038364529007063,
            5.2469279841452545,
        ],
        "control_rms": [
            0.005670137808890553, 0.07827277024860328, 0.012666472397195972,
            0.010389119208008342, 0.24445513186651396, 0.028219510912741677,
            1.2700312344272662, 1.0, 0.924299329635297, 0.1317796871118282,
            15.149199797741227, 0.09691886911269854, 0.003029137630023191,
            0.0395301128285114, 0.9255525934672433,
        ],
        "jumps": 2,
        "ff_saturations": 74,
    },
}


@pytest.mark.parametrize("key", sorted(FLIGHTS))
def test_flight_matches_recorded_values(request, key):
    got = flight_summary(fly(fixture_plans(request), key))
    want = PINNED[key]
    assert got["jumps"] == want["jumps"]
    assert got["ff_saturations"] == want["ff_saturations"]
    for field in ("final_state", "control_max_abs", "control_rms"):
        np.testing.assert_allclose(got[field], want[field], rtol=0.0, atol=TOL, err_msg=field)


DIGESTS = {
    "a": {
        "control": "78dfded4af354a4ce4722675f86b96a48d1e2a0bc901e80f7aa23ce9961efdff",
        "states": "2aae27f5694005b2b903c24ae419ff120ae5e37cc15c7228c94ecff7ab97c35d",
    },
    "a_perturbed": {
        "control": "00576017c7137e395f89383de05696c93fb1a1258e7a94b5fbaad68bf8b4fd07",
        "states": "98e1ee941b0b6d9435666026f5bf2405e0f36dc8cb7f4e8c3598a000bc2f44f4",
    },
    "line": {
        "control": "ddb5039d58f778c2101620c203aa2378b74a58d332f49fecb7c2dd75dc35d42c",
        "states": "a755bd87043948f896f0be5ecbea771e97722699bef34c9b0577e7a50e4ba0aa",
    },
    "line_perturbed": {
        "control": "f5e4c7d02e9891302fcf121d6d2a2ed2843a2e61ae2ce256df919a01fa97fa39",
        "states": "ed88f8121bc97650f8b21326f24a8c278fdd9c81f22d9c933cdef5adc0cb78a5",
    },
    "simulate_full_varying": {
        "states": "dcbee80818d06afbad11c7abcb6bd2bc21882d56b07e895e4e9886cfec24435a",
    },
    "simulate_vertical_explicit": {
        "states": "eb5f7dc88648ad6a53285f73808c8dd35518f1d02fbab45aa90833dbcd146262",
    },
    "simulate_vertical_proxy_constrained": {
        "states": "b1b473d48d188add8ef1c426febdd4898ad6c8ad2fe86611d71d8eb4b51c853a",
    },
}


@pytest.mark.parametrize("key", sorted(FULL_FLIGHTS))
def test_full_flight_logs_match_recorded_digests(request, key):
    logs = fly_full(fixture_plans(request), key)
    assert {field: digest(log) for field, log in logs.items()} == DIGESTS[key]


def test_simulate_full_log_matches_recorded_digest():
    assert {"states": digest(simulate_varying().states)} == DIGESTS["simulate_full_varying"]


@pytest.mark.parametrize("key", sorted(VERTICAL_RUNS))
def test_simulate_vertical_log_matches_recorded_digest(key):
    log = simulate_vertical_varying(VERTICAL_RUNS[key])
    assert {"states": digest(log.states)} == DIGESTS[key]
