import dataclasses
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flapkit.cli
import flapkit.planning
from flapkit import io as kvio
from flapkit.cli import main
from flapkit.control import ControllerGains
from flapkit.dynamics import FullLog, FwavParams, VerticalLog, VerticalParams
from flapkit.errors import InvalidInputError
from flapkit.planning import (
    BoundaryConditions,
    ConstraintSet,
    CylinderX,
    PlanOptions,
    Sphere,
    Waypoint,
    case_library,
    plan,
)
from flapkit.metrics import compute_metrics
from flapkit.simulate import run_closed_loop
from flapkit.trajectory import ObjectiveWeights, PiecewiseTrajectory

from helpers import constant_trajectory, kv_pairs


class TestKvFormat:
    def test_parse_values_and_comments(self):
        text = """
        # a comment
        name = line
        seed = 7        # trailing comment
        start_pos = [0.1, -0.2, 0.3]
        """
        data = kvio.parse_kv(text)
        assert data["name"] == "line"
        assert data["seed"] == 7
        assert data["start_pos"] == [0.1, -0.2, 0.3]

    def test_repeated_obstacle_keys_collect(self):
        data = kvio.parse_kv("sphere = [0,0,0,1]\nsphere = [1,1,1,0.5]\n")
        assert len(data["sphere"]) == 2

    def test_mixed_obstacles_keep_file_order(self):
        text = "cylinder_x = [0, 1, 0.5]\nsphere = [0, 0, 0, 1]\ncylinder_x = [2, 2, 0.1]\n"
        cons, _, _ = kvio.scenario_from_dict(kvio.parse_kv(text))
        assert [type(ob) for ob in cons.obstacles] == [CylinderX, Sphere, CylinderX]
        assert [ob.radius for ob in cons.obstacles] == [0.5, 1.0, 0.1]
        # a dict built by hand has no lines: spheres come first
        cons, _, _ = kvio.scenario_from_dict({"cylinder_x": [[0, 1, 0.5]], "sphere": [[0, 0, 0, 1]]})
        assert [type(ob) for ob in cons.obstacles] == [Sphere, CylinderX]

    def test_duplicate_scalar_key_rejected(self):
        with pytest.raises(InvalidInputError):
            kvio.parse_kv("m = 1\nm = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidInputError):
            kvio.parse_kv("just some text\n")

    def test_round_trip(self, tmp_path):
        pairs = [("alpha", 1.5), ("vec", [1, 2, 3]), ("mode", "fast")]
        path = tmp_path / "f.kv"
        path.write_text(kvio.format_kv(pairs, comment="round trip"))
        data = kvio.load_kv(path)
        assert data == {"alpha": 1.5, "vec": [1, 2, 3], "mode": "fast"}


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VECTOR = st.lists(FINITE, min_size=3, max_size=3)


def assert_bit_exact(got, want, name):
    """Equal float for float, to the bit (sign of zero included)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()], name


class TestParamFiles:
    def test_fwav_params_round_trip(self, tmp_path):
        params = FwavParams(m=0.031, k_tau_z=3e-5)
        path = tmp_path / "p.kv"
        path.write_text(kvio.format_kv(kv_pairs(params)))
        back = kvio.params_from_dict(FwavParams, kvio.load_kv(path))
        assert back.m == params.m
        assert back.k_tau_z == params.k_tau_z
        assert np.allclose(back.J, params.J)

    def test_vertical_params_round_trip(self, tmp_path):
        params = VerticalParams(vk_gamma=17.5)
        path = tmp_path / "v.kv"
        path.write_text(kvio.format_kv(kv_pairs(params)))
        back = kvio.params_from_dict(VerticalParams, kvio.load_kv(path))
        assert back.vk_gamma == 17.5

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        positive=st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=3, max_size=3,
        ),
        coeffs=st.lists(
            st.floats(min_value=0.0, allow_infinity=False), min_size=6, max_size=6,
        ),
    )
    def test_vertical_params_kv_round_trip_bit_exact(self, positive, coeffs):
        m, g, k_tf = positive
        params = VerticalParams(
            m=m, g=g, k_tf=k_tf,
            **dict(zip(
                ["vk_d_x", "vk_d_z", "vk_gamma", "vk_damp", "kbar_gamma", "kbar_flap_x"], coeffs,
            )),
        )
        text = kvio.format_kv(kv_pairs(params))
        back = kvio.params_from_dict(VerticalParams, kvio.parse_kv(text))
        for fld in dataclasses.fields(VerticalParams):
            want, got = getattr(params, fld.name), getattr(back, fld.name)
            assert float(got).hex() == float(want).hex(), fld.name

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        positive=st.lists(POSITIVE, min_size=6, max_size=6),
        drag=st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=3, max_size=3),
        signed=st.lists(FINITE, min_size=6, max_size=6),
        diag=st.lists(st.floats(1e-8, 1e3), min_size=3, max_size=3),
        off=st.lists(st.floats(-0.49, 0.49), min_size=3, max_size=3),
    )
    def test_fwav_params_kv_round_trip_bit_exact(self, positive, drag, signed, diag, off):
        # off-diagonals below half the smaller diagonal: J stays positive definite
        j_mat = np.diag(diag)
        for (i, j), frac in zip([(0, 1), (0, 2), (1, 2)], off):
            j_mat[i, j] = j_mat[j, i] = frac * min(diag[i], diag[j])
        params = FwavParams(
            J=j_mat,
            **dict(zip(["m", "g", "k_tf", "k_flap_c", "k_rud_c", "k_ele_c"], positive)),
            **dict(zip(["k_d_x", "k_d_y", "k_d_z"], drag)),
            **dict(zip(["k_tau_x", "k_tau_y", "k_tau_z", "k_flap_x", "k_flap_y", "k_flap_z"],
                       signed)),
        )
        back = kvio.params_from_dict(FwavParams, kvio.parse_kv(kvio.format_kv(kv_pairs(params))))
        for fld in dataclasses.fields(FwavParams):
            assert_bit_exact(getattr(back, fld.name), getattr(params, fld.name), fld.name)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        kp=st.lists(POSITIVE, min_size=3, max_size=3),
        kv=st.lists(POSITIVE, min_size=3, max_size=3),
        positive=st.lists(POSITIVE, min_size=9, max_size=9),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        l_gamma=st.lists(POSITIVE, min_size=2, max_size=2),
        zeta=st.floats(0.0, 2.0, exclude_min=True),
    )
    def test_gains_kv_round_trip_bit_exact(self, kp, kv, positive, delta, l_gamma, zeta):
        gains = ControllerGains(
            kp=np.array(kp), kv=np.array(kv), delta=delta, filter_zeta=zeta,
            l_gamma_min=min(l_gamma), l_gamma_max=max(l_gamma),
            **dict(zip(["k_psi", "k_omega", "k_rud", "k_ele", "k_omega_x", "k_omega_y",
                        "filter_wn", "psi_rate_ff_cap", "gamma_yd_limit"], positive)),
        )
        text = kvio.format_kv(kv_pairs(gains))
        back = kvio.params_from_dict(ControllerGains, kvio.parse_kv(text))
        for fld in dataclasses.fields(ControllerGains):
            assert_bit_exact(getattr(back, fld.name), getattr(gains, fld.name), fld.name)

    def test_gains_round_trip(self, tmp_path):
        gains = ControllerGains(k_psi=0.9, kp=np.array([0.5, 0.6, 0.7]))
        path = tmp_path / "g.kv"
        path.write_text(kvio.format_kv(kv_pairs(gains)))
        back = kvio.params_from_dict(ControllerGains, kvio.load_kv(path))
        assert back.k_psi == 0.9
        assert np.allclose(back.kp, [0.5, 0.6, 0.7])

    def test_shipped_defaults_load(self):
        # each shipped file names every key of its schema, in the schema's
        # order, and holds the dataclass defaults to the bit
        from importlib import resources

        for name, cls in [
            ("default_full_params.kv", FwavParams),
            ("default_vertical_params.kv", VerticalParams),
            ("default_gains.kv", ControllerGains),
        ]:
            text = resources.files("flapkit").joinpath(f"data/{name}").read_text()
            data, defaults = kvio.parse_kv(text), cls()
            assert list(data) == [key for key, _ in kv_pairs(defaults)], name
            back = kvio.params_from_dict(cls, data)
            for fld in dataclasses.fields(cls):
                want, got = getattr(defaults, fld.name), getattr(back, fld.name)
                assert_bit_exact(got, want, f"{name}: {fld.name}")


class TestStrictKeys:
    # each parameter and gain file goes through the one reader; the ids keep
    # the names of the per-file readers it replaced
    READERS = {
        "fwav_params_from_dict": partial(kvio.params_from_dict, FwavParams),
        "vertical_params_from_dict": partial(kvio.params_from_dict, VerticalParams),
        "gains_from_dict": partial(kvio.params_from_dict, ControllerGains),
        "scenario_from_dict": kvio.scenario_from_dict,
    }

    @pytest.mark.parametrize("loader,typo,nearest", [
        ("fwav_params_from_dict", "k_tau_xx", "k_tau_x"),
        ("fwav_params_from_dict", "jzzz", "jzz"),
        ("vertical_params_from_dict", "vk_gama", "vk_gamma"),
        ("vertical_params_from_dict", "kbar_flapx", "kbar_flap_x"),
        ("gains_from_dict", "k_omga", "k_omega"),
        ("scenario_from_dict", "segmnets", "segments"),
        ("scenario_from_dict", "v_hmax", "v_h_max"),
    ])
    def test_typo_names_the_nearest_key(self, loader, typo, nearest):
        with pytest.raises(InvalidInputError, match=f"{typo!r}.*{nearest!r}"):
            self.READERS[loader]({typo: 1.0})

    @pytest.mark.parametrize("key", ["vk_d_y", "vk_tau_x", "vk_flap_x", "lateral_mode"])
    def test_deleted_vertical_key_rejected(self, key):
        # the free lateral law and the explicit rudder's deflection gains are gone:
        # a file that still sets them is refused, not silently half-read
        with pytest.raises(InvalidInputError, match=f"unknown VerticalParams key {key!r}"):
            kvio.params_from_dict(VerticalParams, {key: 1.0})

    def test_key_of_another_schema_rejected(self):
        from importlib import resources

        text = resources.files("flapkit").joinpath("data/default_full_params.kv").read_text()
        with pytest.raises(InvalidInputError, match="'k_d_x'.*'vk_d_x'"):
            kvio.params_from_dict(VerticalParams, kvio.parse_kv(text))

    def test_scenario_name_accepted(self):
        kvio.scenario_from_dict({"name": "custom", "segments": 1})

    def test_cli_typo_exits_1_with_message(self, tmp_path, capsys):
        scenario = tmp_path / "typo.kv"
        scenario.write_text("segmnets = 3\n")
        assert main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "x.csv")]) == 1
        assert "'segmnets'" in capsys.readouterr().err
        traj_csv = tmp_path / "hover.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj_csv)
        full_params = tmp_path / "full.kv"
        full_params.write_text(kvio.format_kv(kv_pairs(FwavParams())))
        assert main([
            "simulate", "--traj", str(traj_csv), "--model", "vertical",
            "--params", str(full_params),
            "--out-state", str(tmp_path / "s.csv"), "--out-control", str(tmp_path / "c.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert "'k_d_x'" in err and "'vk_d_x'" in err


class TestScenarioFiles:
    @pytest.mark.parametrize("name", ["a", "b", "c", "line"])
    def test_case_round_trip(self, name):
        cons, opts, weights = case_library(name)
        text = kvio.format_kv(kvio.scenario_to_pairs(cons, opts, weights, name))
        cons2, opts2, weights2 = kvio.scenario_from_dict(kvio.parse_kv(text))
        assert opts2.segments == opts.segments
        assert opts2.T == opts.T
        assert weights2.mu_v == weights.mu_v
        assert np.allclose(cons2.boundary.end_pos, cons.boundary.end_pos)
        assert len(cons2.obstacles) == len(cons.obstacles)
        assert len(cons2.waypoints) == len(cons.waypoints)
        for w1, w2 in zip(cons.waypoints, cons2.waypoints):
            assert w1.segment == w2.segment
            assert np.allclose(w1.position, w2.position)

    def test_values_read_as_their_field_types(self):
        # an integral float is an integer; an infinity is left to the
        # dataclass checks, which allow an unbounded heading rate
        cons, opts, _ = kvio.scenario_from_dict(
            kvio.parse_kv("segments = 2.0\nseed = 7\npsi_rate_max = Infinity\n"))
        assert (opts.segments, opts.seed) == (2, 7) and type(opts.segments) is int
        assert cons.psi_rate_max == np.inf

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_scenario_kv_round_trip_bit_exact(self, data):
        segments = data.draw(st.integers(1, 6))
        opts = PlanOptions(
            segments=segments, order=data.draw(st.integers(4, 10)), T=data.draw(POSITIVE),
            restarts=data.draw(st.integers(1, 64)), seed=data.draw(st.integers(0, 2**32 - 1)),
        )
        weights = ObjectiveWeights(mu_p=data.draw(POSITIVE),
                                   mu_v=data.draw(st.floats(0.0, allow_infinity=False)))
        boundary = BoundaryConditions(**{
            name: data.draw(VECTOR) for name in
            ("start_pos", "start_vel", "start_acc", "end_pos", "end_vel", "end_acc")
        })
        waypoints = [
            Waypoint(data.draw(st.integers(0, segments - 1)), data.draw(FINITE), data.draw(VECTOR))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        # spheres and cylinders in any order: the file keeps it
        obstacles = data.draw(st.lists(st.one_of(
            st.builds(Sphere, VECTOR, POSITIVE),
            st.builds(CylinderX, st.lists(FINITE, min_size=2, max_size=2), POSITIVE),
        ), max_size=4))
        limits = data.draw(st.lists(POSITIVE, min_size=4, max_size=4))
        cons = ConstraintSet(
            boundary=boundary, waypoints=waypoints, obstacles=obstacles,
            **dict(zip(["v_h_max", "v_v_max", "psi_rate_max", "sample_interval"], limits)),
        )
        text = kvio.format_kv(kvio.scenario_to_pairs(cons, opts, weights))
        cons2, opts2, weights2 = kvio.scenario_from_dict(kvio.parse_kv(text))

        for name in ("segments", "order", "restarts", "seed"):
            assert getattr(opts2, name) == getattr(opts, name), name
        assert_bit_exact(opts2.T, opts.T, "T")
        for name in ("mu_p", "mu_v"):
            assert_bit_exact(getattr(weights2, name), getattr(weights, name), name)
        for fld in dataclasses.fields(BoundaryConditions):
            assert_bit_exact(getattr(cons2.boundary, fld.name), getattr(boundary, fld.name),
                             fld.name)
        for name in ("v_h_max", "v_v_max", "psi_rate_max", "sample_interval"):
            assert_bit_exact(getattr(cons2, name), getattr(cons, name), name)
        assert len(cons2.waypoints) == len(waypoints)
        for w1, w2 in zip(waypoints, cons2.waypoints):
            assert w2.segment == w1.segment
            assert_bit_exact(w2.t_local, w1.t_local, "t_local")
            assert_bit_exact(w2.position, w1.position, "waypoint position")
        assert [type(ob) for ob in cons2.obstacles] == [type(ob) for ob in obstacles]
        for o1, o2 in zip(obstacles, cons2.obstacles):
            where = "center" if isinstance(o1, Sphere) else "center_yz"
            assert_bit_exact(getattr(o2, where), getattr(o1, where), where)
            assert_bit_exact(o2.radius, o1.radius, "radius")


class TestCli:
    def test_cases_prints_published_numbers(self, capsys):
        assert main(["cases", "a"]) == 0
        out = capsys.readouterr().out
        assert "sphere = [0.5, 0.5, 0.5, 0.5]" in out
        assert "end_pos = [1.0, 1.0, 1.0]" in out

    def test_cases_b_cylinders(self, capsys):
        assert main(["cases", "b"]) == 0
        out = capsys.readouterr().out
        assert "cylinder_x = [0.5, -0.2, 0.3]" in out
        assert "cylinder_x = [1.5, 0.1, 0.3]" in out

    def test_usage_error_exit_code(self, capsys):
        assert main(["plan"]) == 1
        assert main(["nonsense"]) == 1

    def test_plan_simulate_metrics_pipeline(self, tmp_path, capsys):
        traj_csv = tmp_path / "line.csv"
        assert main(["plan", "--scenario", "line", "--out", str(traj_csv),
                     "--sampled", str(tmp_path / "line_sampled.csv")]) == 0
        assert main([
            "simulate", "--traj", str(traj_csv),
            "--out-state", str(tmp_path / "state.csv"),
            "--out-control", str(tmp_path / "control.csv"),
        ]) == 0
        assert main([
            "metrics", "--state", str(tmp_path / "state.csv"),
            "--traj", str(traj_csv), "--case", "line",
            "--out", str(tmp_path / "metrics.csv"),
        ]) == 0
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("case,along_max")
        values = [float(x) for x in metrics[1].split(",")[1:]]
        assert max(values) < 1e-6  # perfect playback of an exact tracker

    def test_identify_from_line_log(self, tmp_path, capsys):
        traj_csv = tmp_path / "line.csv"
        main(["plan", "--scenario", "line", "--out", str(traj_csv)])
        main([
            "simulate", "--traj", str(traj_csv),
            "--out-state", str(tmp_path / "state.csv"),
            "--out-control", str(tmp_path / "control.csv"),
        ])
        assert main(["identify", "--state", str(tmp_path / "state.csv")]) == 0
        out = capsys.readouterr().out
        assert "k_d/m" in out

    @pytest.mark.parametrize("fault,message", [
        ("one row", "need at least 2 samples, got 1"),
        ("a repeated time", "t[19] = 0.018 follows t[18] = 0.018"),
    ])
    def test_identify_from_a_degenerate_log_exits_1(self, tmp_path, capsys, run_line, fault,
                                                    message):
        path = tmp_path / "state.csv"
        run_line.state_log.to_csv(path)
        text = path.read_text()
        path.write_text(edit_rows(text, keep=lambda c: c[0] == "0") if fault == "one row" else
                        edit_rows(text, change=lambda c: ["0.018", *c[1:]] if c[0] == "0.019"
                                  else c))
        assert main(["identify", "--state", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert captured.out == ""

    def test_scenario_file_input(self, tmp_path):
        scen = tmp_path / "scen.kv"
        assert main(["cases", "line", "--out", str(scen)]) == 0
        assert main(["plan", "--scenario", str(scen),
                     "--out", str(tmp_path / "t.csv")]) == 0

    def test_plan_without_samples_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "sparse.kv"
        scenario.write_text("end_pos = [1, 0, 0]\nsample_interval = 5.0\nrestarts = 2\n")
        assert main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "t.csv")]) == 1
        assert "leaves no sample" in capsys.readouterr().err

    @pytest.mark.parametrize("interval,count", [("1e-300", "3e+300"), ("5e-324", "inf")])
    def test_plan_with_too_many_samples_exits_1(self, tmp_path, capsys, interval, count):
        scenario = tmp_path / "dense.kv"
        scenario.write_text(f"end_pos = [1, 0, 0]\nsample_interval = {interval}\n")
        assert main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: need at most "), err
        assert f"samples, got {count} from a" in err[0]
        assert not (tmp_path / "t.csv").exists()

    def test_plan_restarts_and_seed(self, tmp_path, monkeypatch):
        seen = []

        def planner(cons, weights, opts):
            seen.append((opts.restarts, opts.seed))
            return plan(cons, weights, opts)

        monkeypatch.setattr(flapkit.cli, "run_planner", planner)
        out = tmp_path / "c.csv"
        assert main(["plan", "--scenario", "c", "--restarts", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        assert seen == [(2, 7)]
        cons, opts, weights = case_library("c")
        opts = dataclasses.replace(opts, restarts=2, seed=7)
        plan(cons, weights, opts)[0].to_coeff_csv(tmp_path / "want.csv")
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_infeasible_plan_exits_2(self, tmp_path, capsys):
        # 1.5 m at 0.05 m/s does not fit in the scenario's 4 s
        scenario = tmp_path / "slow.kv"
        scenario.write_text("end_pos = [1.5, 0, 0]\nv_h_max = 0.05\nrestarts = 1\n")
        out = tmp_path / "t.csv"
        assert main(["plan", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible: "), err
        assert not out.exists()

    def test_diverged_flight_exits_3(self, tmp_path, capsys):
        # a start 150 m off the reference is beyond the 100 m divergence radius
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        state = tmp_path / "state.csv"
        assert main(["simulate", "--traj", str(traj), "--out-state", str(state),
                     "--out-control", str(tmp_path / "control.csv"),
                     "--perturb=150,0,0"]) == 3
        assert capsys.readouterr().err == "diverged at t=0.001 s\n"
        assert len(kvio.load_state_log(state).t) == 2

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_flight_too_large_for_memory_exits_1(self, tmp_path, capsys, case_line, command):
        # 3e13 steps of 1e-13 s: numpy refuses the 1.7 PiB state table at
        # once, without touching memory, and the run ends in one error line
        traj = tmp_path / "traj.csv"
        case_line.traj.to_coeff_csv(traj)
        args = {
            "simulate": ["simulate", "--traj", str(traj), "--out-state",
                         str(tmp_path / "state.csv"), "--out-control", str(tmp_path / "c.csv")],
            "track": ["track", "--case", "line", "--restarts", "1", "--out-dir", str(tmp_path)],
        }[command]
        assert main([*args, "--dt", "1e-13", "--rate", "1e13"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory: "), err
        assert not (tmp_path / "state.csv").exists()

    def test_metrics_of_full_model_log(self, tmp_path, capsys, case_line):
        traj = tmp_path / "line.csv"
        case_line.traj.to_coeff_csv(traj)
        state, metrics = tmp_path / "state.csv", tmp_path / "metrics.csv"
        assert main(["simulate", "--traj", str(traj), "--model", "full", "--out-state",
                     str(state), "--out-control", str(tmp_path / "control.csv")]) == 0
        assert isinstance(kvio.load_state_log(state), FullLog)
        assert main(["metrics", "--state", str(state), "--traj", str(traj), "--case", "line",
                     "--out", str(metrics)]) == 0
        log = run_closed_loop(PiecewiseTrajectory.from_coeff_csv(traj), FwavParams()).state_log
        want = compute_metrics(log.positions, log.t, case_line.traj, case="line").row()
        got = [float(x) for x in metrics.read_text().splitlines()[1].split(",")[1:]]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_metrics_of_a_large_constant_error(self, tmp_path, capsys, case_line):
        # the RMS of a constant 65 km altitude error rounds one ulp past its MAX
        # (1.5e-11 m): the rms <= max check forgives 1e-12 of the MAX
        traj, state = tmp_path / "line.csv", tmp_path / "state.csv"
        case_line.traj.to_coeff_csv(traj)
        states = np.zeros((44, 8))
        states[:, 2] = -65378.8816186  # line flies at z = 0
        VerticalLog(np.arange(44) * 1e-3, states, np.tile([0.0, 0.0, 1.0, 14.0], (44, 1))) \
            .to_csv(state)
        assert main(["metrics", "--state", str(state), "--traj", str(traj), "--case", "line"]) == 0
        assert "altitude     MAX 65378.882 m  RMS 65378.882 m" in capsys.readouterr().out

    def test_full_model_params_set_the_design_model(self, tmp_path, case_line):
        # a 10 % heavier vehicle: with the default design model (m = 0.029)
        # line flew at 0.112 m altitude RMS; on the plant's own m it flies at
        # 0.0097 m, as the defaults do (0.0104 m), inside the published 0.052 m
        traj, state, metrics = tmp_path / "line.csv", tmp_path / "s.csv", tmp_path / "m.csv"
        case_line.traj.to_coeff_csv(traj)
        heavy = tmp_path / "heavy.kv"
        heavy.write_text(kvio.format_kv(kv_pairs(FwavParams(m=0.032))))
        assert main(["simulate", "--traj", str(traj), "--model", "full", "--params", str(heavy),
                     "--out-state", str(state), "--out-control", str(tmp_path / "c.csv")]) == 0
        assert main(["metrics", "--state", str(state), "--traj", str(traj), "--case", "line",
                     "--out", str(metrics)]) == 0
        header, row = metrics.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("alt_rms")]) <= 0.011

    def test_parser_keeps_no_options_between_calls(self, tmp_path):
        # the parser is built once per process: a default simulate after a
        # full-model, perturbed one flies the vertical model from the reference
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        logs = []
        for options in (["--model", "full", "--perturb=0,0,0.02"], []):
            state = tmp_path / f"state{len(logs)}.csv"
            assert main(["simulate", "--traj", str(traj), "--out-state", str(state),
                         "--out-control", str(tmp_path / "control.csv"),
                         "--duration", "0.05", *options]) == 0
            logs.append(kvio.load_state_log(state))
        assert isinstance(logs[0], FullLog) and isinstance(logs[1], VerticalLog)
        assert logs[0].positions[0].tolist() == [0.0, 0.0, 1.02]
        assert logs[1].positions[0].tolist() == [0.0, 0.0, 1.0]

    def test_track_with_perturbation_smoke(self, tmp_path):
        out_dir = tmp_path / "run"
        code = main([
            "track", "--case", "a", "--perturb", "0.1", "--restarts", "4",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        rows = (out_dir / "metrics.csv").read_text().splitlines()
        values = [float(x) for x in rows[1].split(",")[1:]]
        assert all(np.isfinite(values))
        assert max(values) > 0.0  # perturbed run has nonzero errors

    @pytest.mark.parametrize("command", ["simulate", "track"])
    @pytest.mark.parametrize("form", ["separate", "attached"])
    def test_negative_perturbation(self, tmp_path, command, form):
        perturb = (
            ["--perturb", "-0.02,0,0.01"] if form == "separate"
            else ["--perturb=-0.02,0,0.01"]
        )
        traj_csv = tmp_path / "traj.csv"
        state_csv = tmp_path / "state.csv"
        if command == "simulate":
            assert main(["plan", "--scenario", "line", "--out", str(traj_csv)]) == 0
            args = ["simulate", "--traj", str(traj_csv), "--out-state", str(state_csv),
                    "--out-control", str(tmp_path / "control.csv")]
        else:
            args = ["track", "--case", "line", "--restarts", "1",
                    "--out-dir", str(tmp_path)]
        assert main([*args, *perturb, "--duration", "0.05"]) == 0
        start = PiecewiseTrajectory.from_coeff_csv(traj_csv).eval(0.0)
        log = kvio.load_state_log(state_csv)
        assert np.allclose(log.positions[0], start + [-0.02, 0.0, 0.01], atol=1e-12)

    def test_malformed_perturbation_is_usage_error(self, tmp_path):
        assert main(["track", "--case", "line", "--perturb=-0.1,x,0",
                     "--out-dir", str(tmp_path)]) == 1

    def test_seed_only_on_track(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "--seed" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["track", "--help"])
        assert "--seed" in capsys.readouterr().out

    def test_missing_file_exit_code(self):
        assert main(["plan", "--scenario", "no_such_file.kv",
                     "--out", "/tmp/x.csv"]) == 1

    def test_flat_state_dump(self, tmp_path, case_a):
        from flapkit.dynamics import FwavParams, VerticalParams
        from flapkit.flatness import dump_flat_states

        path = tmp_path / "flat.csv"
        n = dump_flat_states(case_a.traj, VerticalParams(), FwavParams(), path, dt=0.05)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,fflap,thrud,thele,"
            "psi,omegapsi,gx,gy,gz"
        )
        assert len(lines) == n + 1
        assert n > 20

    def test_state_log_reader_round_trip(self, tmp_path, run_line):
        path = tmp_path / "state.csv"
        run_line.state_log.to_csv(path)
        log = kvio.load_state_log(path)
        assert isinstance(log, VerticalLog)
        assert np.allclose(log.states, run_line.state_log.states, atol=1e-9)


def edit_rows(text: str, keep=lambda cells: True, change=lambda cells: cells) -> str:
    """A CSV's text with its header kept and each body row, split into cells,
    dropped unless ``keep`` and rewritten by ``change``."""
    header, *rows = text.splitlines()
    rows = [",".join(change(r.split(","))) for r in rows if keep(r.split(","))]
    return "\n".join([header, *rows]) + "\n"


class TestMalformedFiles:
    """A malformed input file exits 1 with one ``error:`` line naming it."""

    def assert_rejected(self, capsys, path, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0], err
        return err[0]

    @pytest.mark.parametrize("fault,line", [
        ("no axis-2 row", None),
        ("segments 0 and 2", None),
        ("a far segment id", None),
        ("a float segment id", 2),
        ("a short row", 3),
        ("a repeated row", 5),
        ("an axis out of range", 2),
        ("a non-finite cell", 4),
        ("a second T", 4),
        ("no rows", None),
    ])
    def test_trajectory_file(self, tmp_path, capsys, case_line, fault, line):
        good = tmp_path / "good.csv"
        case_line.traj.to_coeff_csv(good)
        text = good.read_text()
        bad = {
            "no axis-2 row": edit_rows(text, keep=lambda c: c[1] != "2"),
            "segments 0 and 2": text + edit_rows(
                text, change=lambda c: ["2", *c[1:]]).split("\n", 1)[1],
            "a far segment id": text + edit_rows(
                text, change=lambda c: ["1000000000000", *c[1:]]).split("\n", 1)[1],
            "a float segment id": edit_rows(text, change=lambda c: ["0.5", *c[1:]]),
            "a short row": edit_rows(text, change=lambda c: c[:5] if c[1] == "1" else c),
            "a repeated row": text + text.splitlines()[1] + "\n",
            "an axis out of range": edit_rows(text, change=lambda c: [c[0], "3", *c[2:]]),
            "a non-finite cell": edit_rows(text, change=lambda c: [*c[:3], "nan", *c[4:]]
                                           if c[1] == "2" else c),
            "a second T": edit_rows(text, change=lambda c: [*c[:-1], "4"] if c[1] == "2" else c),
            "no rows": text.splitlines()[0] + "\n",
        }[fault]
        path = tmp_path / "bad.csv"
        path.write_text(bad)
        where = "bad.csv" + ("" if line is None else f", line {line}:")
        with pytest.raises(InvalidInputError, match=re.escape(where)):
            PiecewiseTrajectory.from_coeff_csv(path)
        self.assert_rejected(capsys, path, [
            "simulate", "--traj", str(path), "--out-state", str(tmp_path / "s.csv"),
            "--out-control", str(tmp_path / "c.csv")])

    def test_control_log_as_trajectory(self, tmp_path, capsys, run_line):
        path = tmp_path / "control.csv"
        run_line.control_to_csv(path)
        message = self.assert_rejected(capsys, path, [
            "simulate", "--traj", str(path), "--out-state", str(tmp_path / "s.csv"),
            "--out-control", str(tmp_path / "c.csv")])
        assert "line 1" in message

    def test_rows_in_any_order_parse_bit_identically(self, tmp_path, case_c):
        path = tmp_path / "traj.csv"
        case_c.traj.to_coeff_csv(path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *reversed(rows)]) + "\n\n")
        back = PiecewiseTrajectory.from_coeff_csv(path)
        assert back.M == case_c.traj.M
        for s0, s1 in zip(case_c.traj.segments, back.segments):
            assert_bit_exact(s1.coeffs, s0.coeffs, "coeffs")
            assert_bit_exact(s1.T, s0.T, "T")

    @pytest.mark.parametrize("fault,message", [
        ("three-cell rows", "rows of 3 cells"),
        ("a fourteenth cell", "rows of 14 cells"),
        ("a ragged row", "number of columns changed"),
        ("a non-numeric cell", "could not convert"),
        ("no rows", "no data rows"),
    ])
    @pytest.mark.parametrize("command", ["metrics", "identify"])
    def test_state_log(self, tmp_path, capsys, run_line, fault, message, command):
        good = tmp_path / "good.csv"
        run_line.state_log.to_csv(good)
        text = edit_rows(good.read_text(), keep=lambda c: float(c[0]) < 0.05)
        bad = {
            "three-cell rows": edit_rows(text, change=lambda c: c[:3]),
            "a fourteenth cell": edit_rows(text, change=lambda c: [*c, "0"]),
            "a ragged row": edit_rows(text, change=lambda c: c[:5] if c[0] == "0.02" else c),
            "a non-numeric cell": edit_rows(text, change=lambda c: [c[0], "x", *c[2:]]),
            "no rows": text.splitlines()[0] + "\n",
        }[fault]
        path = tmp_path / "bad.csv"
        path.write_text(bad)
        with pytest.raises(InvalidInputError, match=message):
            kvio.load_state_log(path)
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        argv = (["metrics", "--state", str(path), "--traj", str(traj)] if command == "metrics"
                else ["identify", "--state", str(path)])
        assert message in self.assert_rejected(capsys, path, argv)

    def test_state_log_with_a_nan_time(self, tmp_path, capsys, run_line):
        # a NaN time is no time of the reference: one error line, no traceback
        good = tmp_path / "good.csv"
        run_line.state_log.to_csv(good)
        text = edit_rows(good.read_text(), keep=lambda c: float(c[0]) < 0.05)
        path = tmp_path / "bad.csv"
        path.write_text(edit_rows(text, change=lambda c: ["nan", *c[1:]] if c[0] == "0.02" else c))
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        assert main(["metrics", "--state", str(path), "--traj", str(traj)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "outside" in err[0], err

    def test_state_log_of_unrecognized_header(self, tmp_path, capsys, run_line):
        path = tmp_path / "control.csv"
        run_line.control_to_csv(path)
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        message = self.assert_rejected(
            capsys, path, ["metrics", "--state", str(path), "--traj", str(traj)])
        assert "unrecognized state-log header" in message

    @pytest.mark.parametrize("line,fault", [
        (4, "a non-numeric cell"),
        (3, "a short row"),
    ])
    def test_state_log_names_the_file_line(self, tmp_path, capsys, run_line, line, fault):
        # line 3 is blank, so data row k is not file line k + 2: the line named
        # is the file's, and numpy's usecols hint is not passed on
        good = tmp_path / "good.csv"
        run_line.state_log.to_csv(good)
        header, first, second, *_ = good.read_text().splitlines()
        bad = {
            "a non-numeric cell": ",".join(["x", *second.split(",")[1:]]),
            "a short row": ",".join(second.split(",")[:5]),
        }[fault]
        lines = [header, first, bad] if line == 3 else [header, first, "", bad]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=re.escape(f"bad.csv, line {line}: ")):
            kvio.load_state_log(path)
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        message = self.assert_rejected(
            capsys, path, ["metrics", "--state", str(path), "--traj", str(traj)])
        assert f", line {line}: " in message and "usecols" not in message

    def test_parameter_file_line_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "params.kv"
        path.write_text("m = 0.03\nk_tf\n")
        with pytest.raises(InvalidInputError, match=re.escape("params.kv, line 2: expected")):
            kvio.load_kv(path)
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        self.assert_rejected(capsys, path, [
            "simulate", "--traj", str(traj), "--params", str(path),
            "--out-state", str(tmp_path / "s.csv"), "--out-control", str(tmp_path / "c.csv")])

    @pytest.mark.parametrize("option,line,key", [
        ("--params", "m = abc", "m"),
        ("--params", "m = nan", "m"),
        ("--gains", "kp = [1, 2]", "kp"),
        ("--gains", "k_psi = [1]", "k_psi"),
        ("--scenario", "start_pos = [0, 0]", "start_pos"),
        ("--scenario", "waypoint = [0, 1]", "waypoint"),
        ("--scenario", "sphere = [0, 0]", "sphere"),
        ("--scenario", "segments = 1.5", "segments"),
        ("--scenario", "waypoint = [0.5, 1, 0, 0, 0]", "waypoint"),
        ("--scenario", "waypoint = [0, 1, 0, 0, 0, 2]", "waypoint"),
        ("--scenario", "v_h_max = NaN", "v_h_max"),
        ("--scenario", "segmnets = 3", "segmnets"),
    ])
    def test_kv_value(self, tmp_path, capsys, option, line, key):
        # a value that is not of its field's type, not finite where a number
        # must be, or of another width than its key's, flies or plans nothing
        path = tmp_path / "bad.kv"
        path.write_text(line + "\n")
        out = tmp_path / "out.csv"
        if option == "--scenario":
            argv = ["plan", "--scenario", str(path), "--out", str(out)]
        else:
            traj = tmp_path / "traj.csv"
            constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
            argv = ["simulate", "--traj", str(traj), option, str(path), "--out-state", str(out),
                    "--out-control", str(tmp_path / "control.csv")]
        assert f"{key!r}" in self.assert_rejected(capsys, path, argv)
        assert not out.exists()

    def test_vertical_params_set_no_yaw_gain_bounds(self, tmp_path, capsys):
        # the bounds of the heading term's gain are the controller's: a vertical
        # parameter file that sets one is rejected, not silently flown without it
        path = tmp_path / "vertical.kv"
        path.write_text("vk_gamma = 20.0\nl_gamma_min = 5.0\n")
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        out = tmp_path / "state.csv"
        message = self.assert_rejected(capsys, path, [
            "simulate", "--traj", str(traj), "--model", "vertical", "--params", str(path),
            "--out-state", str(out), "--out-control", str(tmp_path / "control.csv")])
        assert "'l_gamma_min'" in message
        assert not out.exists()

    @pytest.mark.parametrize("option,line,field", [
        ("--params", "m = Infinity", "m"),
        ("--params", "jxx = Infinity", "J"),
        ("--params", "k_flap_c = Infinity", "k_flap_c"),
        ("--gains", "filter_wn = Infinity", "filter_wn"),
        ("--gains", "kp = [Infinity, 1, 1]", "kp"),
    ])
    def test_non_finite_coefficient(self, tmp_path, capsys, option, line, field):
        # only scenario limits may be infinite; an infinite coefficient would
        # fly a NaN state or a frozen actuator
        path = tmp_path / "bad.kv"
        path.write_text(line + "\n")
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        out = tmp_path / "state.csv"
        message = self.assert_rejected(capsys, path, [
            "simulate", "--traj", str(traj), "--model", "full", option, str(path),
            "--out-state", str(out), "--out-control", str(tmp_path / "control.csv")])
        assert f": {field} must be finite, not " in message
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["--traj", "--state", "--state late", "--params"])
    def test_non_utf8_file(self, tmp_path, capsys, run_line, reader):
        # a binary file, or (late) a state log whose first non-UTF-8 byte comes
        # after numpy's reader has taken over from the header line
        path = tmp_path / "binary.dat"
        binary = bytes(range(128, 256)) * 4
        if reader == "--state late":
            run_line.state_log.to_csv(path)
            binary = path.read_bytes() + binary
        path.write_bytes(binary)
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        outs = ["--out-state", str(tmp_path / "s.csv"), "--out-control", str(tmp_path / "c.csv")]
        argv = {
            "--traj": ["simulate", "--traj", str(path), *outs],
            "--state": ["metrics", "--state", str(path), "--traj", str(traj)],
            "--state late": ["metrics", "--state", str(path), "--traj", str(traj)],
            "--params": ["simulate", "--traj", str(traj), "--params", str(path), *outs],
        }[reader]
        assert "not UTF-8 text" in self.assert_rejected(capsys, path, argv)


class TestClosedLoopArguments:
    """An invalid closed-loop argument exits 1 with one ``error:`` line, before
    the flight starts."""

    @pytest.mark.parametrize("args", [
        ["--dt", "0"], ["--rate", "0"], ["--dt", "nan"], ["--rate", "nan"], ["--dt", "inf"],
        ["--duration", "nan"], ["--duration", "-1"], ["--duration", "inf"],
        ["--perturb", "nan,0,0"], ["--dt", "3e-3"], ["--rate", "1e12"],
        # one tick per step, but 3e300 steps
        ["--dt", "1e-300", "--rate", "1e300"],
    ], ids=" ".join)
    def test_rejected(self, tmp_path, capsys, args):
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        state = tmp_path / "state.csv"
        argv = ["simulate", "--traj", str(traj), "--out-state", str(state),
                "--out-control", str(tmp_path / "control.csv"), *args]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not state.exists()

    @pytest.mark.parametrize("args", [["--params", "old.kv"], ["--dt", "3e-3"],
                                      ["--perturb", "nan,0,0"]], ids=" ".join)
    def test_track_plans_nothing(self, tmp_path, capsys, monkeypatch, args):
        # track reads and checks its flight settings before it plans: a parameter
        # file of an older schema, a step that does not divide the 10 ms
        # controller period and a NaN start offset each cost no plan and leave
        # no output directory
        planned = []
        monkeypatch.setattr(flapkit.planning, "_restart", lambda *args: planned.append(args))
        (tmp_path / "old.kv").write_text("vk_d_y = 0.03\n")
        monkeypatch.chdir(tmp_path)
        assert main(["track", "--case", "line", "--out-dir", "t", *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert planned == [] and not (tmp_path / "t").exists()

    def test_case_name_beside_a_directory_of_that_name(self, tmp_path, monkeypatch, capsys):
        # a case name is the published case: track's --out-dir named like the
        # case does not shadow it on the second run, nor for cases
        (tmp_path / "line").mkdir()
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main(["track", "--case", "line", "--out-dir", "line"]) == 0
        assert (tmp_path / "line" / "summary.txt").exists()
        capsys.readouterr()
        assert main(["cases", "line"]) == 0
        assert "name = line" in capsys.readouterr().out

    def test_zero_duration_flies_no_step(self, tmp_path):
        traj = tmp_path / "traj.csv"
        constant_trajectory([0.0, 0.0, 1.0]).to_coeff_csv(traj)
        state = tmp_path / "state.csv"
        assert main(["simulate", "--traj", str(traj), "--out-state", str(state),
                     "--out-control", str(tmp_path / "control.csv"), "--duration", "0"]) == 0
        assert len(kvio.load_state_log(state).t) == 1


class TestPlanOptionArguments:
    """A planner option out of range exits 1 with one ``error:`` line that
    names it, before any restart runs and before any file is written."""

    @pytest.mark.parametrize("line, field", [
        ("restarts = 0", "restarts"), ("restarts = -5", "restarts"),
        ("segments = 0", "segments"), ("segments = -2", "segments"), ("order = -5", "order"),
        ("segment_duration = 0", "T"), ("segment_duration = -3", "T"),
        ("segment_duration = Infinity", "T"), ("seed = -2", "seed"),
    ], ids=lambda v: v.replace(" ", ""))
    def test_scenario_file(self, tmp_path, capsys, monkeypatch, line, field):
        planned = []
        monkeypatch.setattr(flapkit.planning, "_restart", lambda *args: planned.append(args))
        scenario = tmp_path / "bad.kv"
        scenario.write_text(f"end_pos = [1, 0, 0]\n{line}\n")
        out = tmp_path / "t.csv"
        assert main(["plan", "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scenario}: {field} "), err
        assert planned == [] and not out.exists()

    @pytest.mark.parametrize("restarts", ["0", "-5"])
    @pytest.mark.parametrize("command", ["plan", "track"])
    def test_restarts_flag(self, tmp_path, capsys, monkeypatch, command, restarts):
        planned = []
        monkeypatch.setattr(flapkit.planning, "_restart", lambda *args: planned.append(args))
        out = tmp_path / "out"
        argv = (["plan", "--scenario", "line", "--out", str(out)] if command == "plan"
                else ["track", "--case", "line", "--out-dir", str(out)])
        assert main([*argv, "--restarts", restarts]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: restarts must be at least 1, not {restarts}"]
        assert planned == [] and not out.exists()

    @pytest.mark.parametrize("command", ["plan", "track"])
    def test_negative_seed_flag(self, tmp_path, capsys, monkeypatch, command):
        planned = []
        monkeypatch.setattr(flapkit.planning, "_restart", lambda *args: planned.append(args))
        out = tmp_path / "out"
        argv = (["plan", "--scenario", "line", "--out", str(out)] if command == "plan"
                else ["track", "--case", "line", "--out-dir", str(out)])
        assert main([*argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be non-negative, not -1"]
        assert planned == [] and not out.exists()


class TestScenarioGeometry:
    """Scenario geometry must be finite: a non-finite entry exits 1 with one
    ``error:`` line naming its field, before any restart runs and before any
    file is written.  Only the limits may be infinite."""

    @pytest.mark.parametrize("line, field", [
        ("end_pos = [Infinity, 0, 0]", "end_pos"),
        ("start_vel = [0, -Infinity, 0]", "start_vel"),
        ("waypoint = [0, 1.0, Infinity, 0, 0]", "waypoint position"),
        ("waypoint = [0, Infinity, 1, 0, 0]", "waypoint t_local"),
        ("sphere = [0.5, 0.5, 0.5, Infinity]", "obstacle radius"),
        ("sphere = [0.5, -Infinity, 0.5, 0.3]", "sphere center"),
        ("cylinder_x = [Infinity, 0, 0.3]", "cylinder center_yz"),
    ], ids=lambda v: v.replace(" ", ""))
    def test_non_finite_entry_exits_1(self, tmp_path, capsys, monkeypatch, line, field):
        planned = []
        monkeypatch.setattr(flapkit.planning, "_restart", lambda *args: planned.append(args))
        scenario = tmp_path / "bad.kv"
        scenario.write_text(f"restarts = 2\n{line}\n")
        out = tmp_path / "t.csv"
        assert main(["plan", "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scenario}: {field} must be"), err
        assert planned == [] and not out.exists()

    @pytest.mark.parametrize("line", ["end_pos = [1e308, 0, 0]", "sphere = [1e200, 0, 0, 0.3]"],
                             ids=["end_pos", "sphere"])
    def test_too_large_for_float64_exits_1(self, tmp_path, capsys, line):
        # finite, but the equality QP (end_pos) or a squared obstacle offset
        # (sphere) overflows; warnings are errors here, so a RuntimeWarning
        # on the way would end the call in a traceback instead
        scenario = tmp_path / "huge.kv"
        scenario.write_text(f"restarts = 2\n{line}\n")
        out = tmp_path / "t.csv"
        assert main(["plan", "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: scenario too large for float64 arithmetic ("), err
        assert not out.exists()

    def test_infinite_limits_plan(self, tmp_path, capsys):
        scenario = tmp_path / "free.kv"
        scenario.write_text("end_pos = [1, 0, 0]\nrestarts = 2\nv_h_max = Infinity\n"
                            "v_v_max = Infinity\npsi_rate_max = Infinity\n")
        out = tmp_path / "t.csv"
        assert main(["plan", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert "objective" in capsys.readouterr().out and out.exists()


def test_every_planner_setting_has_a_scenario_key():
    # a dataclass field a scenario file cannot set is a setting no caller
    # sets: PlanOptions, ObjectiveWeights, BoundaryConditions and the scalar
    # limits of ConstraintSet are each the file's keys
    settings = [(cls, fld.name) for cls in (PlanOptions, ObjectiveWeights, BoundaryConditions)
                for fld in dataclasses.fields(cls)]
    settings += [(ConstraintSet, name) for name, value in kvio._defaults(ConstraintSet).items()
                 if isinstance(value, float)]
    keyed = set(kvio._SCENARIO_FIELDS.values())
    assert [f"{cls.__name__}.{name}" for cls, name in settings if (cls, name) not in keyed] == []
