"""Command line front end: config schema, output formats, exit codes."""

import json
import math
import re

import numpy as np
import pytest

from mayleonard import ConfigError, ModelParams, rhs, rk4_fixed
from mayleonard.cli import (MAX_GRID_POINTS, MAX_RK4_STEPS, RunConfig,
                            config_from_dict, main, parse_config,
                            serialize_config)

LN2 = math.log(2.0)


def smoke_config(**overrides):
    # Symmetric system relaxing onto the interior equilibrium (1/3, 1/3, 1/3).
    cfg = {"mode": "real", "eta": 1.0,
           "symmetric": {"alpha": 1.5, "beta": 0.5},
           "x0": [0.2, 0.2, 0.2], "t_span": [0.0, 20.0], "method": "adaptive"}
    cfg.update(overrides)
    return cfg


def blow_up_config(**overrides):
    # All-ones couplings with a negative ray: z = -1, pole at t = ln 2.
    cfg = {"mode": "real", "eta": 1.0,
           "symmetric": {"alpha": 1.0, "beta": 1.0},
           "x0": [-0.25, -0.25, -0.5], "t_span": [0.0, 2.0],
           "method": "adaptive"}
    cfg.update(overrides)
    return cfg


def write_json(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def data_rows(text):
    return [line for line in text.splitlines()
            if line and not line.startswith(("t,", "#"))]


def comment_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


class TestConfigValidation:
    def test_minimal_adaptive_config_parses(self):
        cfg = parse_config(json.dumps(smoke_config()))
        assert cfg.mode == "real"
        assert cfg.eta == 1.0
        assert cfg.symmetric == (1.5, 0.5)
        assert cfg.couplings is None
        assert cfg.rtol == 1e-9 and cfg.atol == 1e-12
        assert cfg.grid_points == 501
        assert cfg.output_format == "csv"

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config("{not json")

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            parse_config("[1, 2]")

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="unknown config key: 'stepsize'"):
            config_from_dict(smoke_config(stepsize=0.1))

    @pytest.mark.parametrize("missing", ["mode", "eta", "x0", "t_span", "method"])
    def test_missing_required_key(self, missing):
        cfg = smoke_config()
        del cfg[missing]
        with pytest.raises(ConfigError, match=f"missing config key: '{missing}'"):
            config_from_dict(cfg)

    def test_couplings_and_symmetric_exclusive(self):
        both = smoke_config(couplings={k: 1.0 for k in
                                       ("a12", "a13", "a21", "a23", "a31", "a32")})
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(both)
        neither = smoke_config()
        del neither["symmetric"]
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(neither)

    def test_couplings_key_set_is_exact(self):
        cfg = smoke_config()
        del cfg["symmetric"]
        cfg["couplings"] = {"a12": 1.0}
        with pytest.raises(ConfigError, match="exactly the keys"):
            config_from_dict(cfg)

    def test_complex_pair_rejected_in_real_mode(self):
        msg = "mode mismatch: 'eta' is a \\[re, im\\] pair but mode is \"real\""
        with pytest.raises(ConfigError, match=msg):
            config_from_dict(smoke_config(eta=[0.0, 1.0]))

    def test_nonfinite_scalar_rejected(self):
        # json.loads accepts the Infinity literal, so the validator must catch it.
        text = json.dumps(smoke_config()).replace("1.0,", "Infinity,", 1)
        with pytest.raises(ConfigError, match="'eta' must be finite"):
            parse_config(text)

    @pytest.mark.parametrize("key,overrides,mode", [
        ("eta", {"eta": 10**400}, "real"),
        ("eta", {"eta": [1.0, -10**400]}, "complex"),
        ("x0[1]", {"x0": [0.2, 10**400, 0.2]}, "real"),
        ("t_span[1]", {"t_span": [0.0, 10**400]}, "real"),
    ])
    def test_oversized_integer_rejected(self, key, overrides, mode):
        # A JSON integer past the float range must not escape as OverflowError.
        text = json.dumps(smoke_config(mode=mode, **overrides))
        with pytest.raises(ConfigError, match=re.escape(f"'{key}' must be finite")):
            parse_config(text)

    def test_rk4_step_cap(self):
        # Exactly MAX_RK4_STEPS steps parse; one more is refused.  Parsing
        # only: neither config is run.
        span = [0.0, float(MAX_RK4_STEPS)]
        cfg = config_from_dict(smoke_config(method="rk4", step=1.0, t_span=span))
        assert cfg.step == 1.0
        over = smoke_config(method="rk4", step=1.0, t_span=[0.0, MAX_RK4_STEPS + 1.0])
        with pytest.raises(ConfigError, match="more than 10000000 RK4 steps"):
            config_from_dict(over)
        tiny = smoke_config(method="rk4", step=1e-300)
        with pytest.raises(ConfigError, match="RK4 steps"):
            config_from_dict(tiny)

    def test_grid_points_cap(self):
        assert config_from_dict(
            smoke_config(grid_points=MAX_GRID_POINTS)).grid_points == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="at most 1000000"):
            config_from_dict(smoke_config(grid_points=MAX_GRID_POINTS + 1))

    def test_rk4_requires_step(self):
        with pytest.raises(ConfigError, match="requires 'step'"):
            config_from_dict(smoke_config(method="rk4"))

    def test_step_rejected_off_rk4(self):
        with pytest.raises(ConfigError, match="only applies to method \"rk4\""):
            config_from_dict(smoke_config(step=0.01))

    def test_tolerances_rejected_off_adaptive(self):
        cfg = smoke_config(method="rk4", step=0.01,
                           tolerances={"rtol": 1e-9, "atol": 1e-12})
        with pytest.raises(ConfigError, match="only applies to method \"adaptive\""):
            config_from_dict(cfg)

    def test_t_span_must_not_decrease(self):
        with pytest.raises(ConfigError, match="t1 >= t0"):
            config_from_dict(smoke_config(t_span=[1.0, 0.0]))

    def test_t_span_may_be_degenerate(self):
        cfg = config_from_dict(smoke_config(t_span=[2.0, 2.0]))
        assert cfg.t_span == (2.0, 2.0)

    def test_grid_points_floor(self):
        with pytest.raises(ConfigError, match="at least 1"):
            config_from_dict(smoke_config(grid_points=0))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="'grid_points' must be an integer"):
            config_from_dict(smoke_config(grid_points=True))

    @pytest.mark.parametrize("bad", [{"x0": [1.0, 2.0]},
                                     {"method": "euler"},
                                     {"mode": "rational"},
                                     {"output": {"format": "yaml"}}])
    def test_assorted_rejections(self, bad):
        with pytest.raises(ConfigError):
            config_from_dict(smoke_config(**bad))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("extra", [
        {},
        {"method": "rk4", "step": 0.01},
        {"tolerances": {"rtol": 1e-7, "atol": 1e-10}},
        {"grid_points": 7, "seed": 42, "z_override": 0.9},
        {"output": {"path": "out.csv", "format": "json"}},
    ])
    def test_parse_serialize_parse_identity(self, extra):
        cfg = config_from_dict(smoke_config(**extra))
        again = config_from_dict(serialize_config(cfg))
        assert again == cfg

    def test_complex_scalars_round_trip(self):
        raw = smoke_config(mode="complex", eta=[0.0, 1.0],
                           x0=[[0.25, 0.0], [0.25, 0.0], [0.5, 0.0]])
        cfg = config_from_dict(raw)
        assert cfg.eta == 1j
        assert cfg.x0 == (0.25 + 0j, 0.25 + 0j, 0.5 + 0j)
        assert config_from_dict(serialize_config(cfg)) == cfg

    def test_couplings_variant_round_trips(self):
        raw = smoke_config()
        del raw["symmetric"]
        raw["couplings"] = {"a12": 2.0, "a13": 0.5, "a21": 0.5, "a23": 2.0,
                            "a31": 2.0, "a32": 0.5}
        cfg = config_from_dict(raw)
        assert cfg.couplings == (2.0, 0.5, 0.5, 2.0, 2.0, 0.5)
        assert config_from_dict(serialize_config(cfg)) == cfg

    def test_serialization_omits_unset_options(self):
        obj = serialize_config(config_from_dict(smoke_config()))
        for absent in ("step", "output", "z_override", "seed"):
            assert absent not in obj


class TestSimulate:
    def test_smoke_relaxes_to_interior_equilibrium(self, tmp_path, capsys):
        out = tmp_path / "smoke.csv"
        rc = main(["simulate", write_json(tmp_path, smoke_config()),
                   "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0] == "t,x1,x2,x3"
        last = data_rows(text)[-1].split(",")
        assert float(last[0]) == 20.0
        for cell in last[1:]:
            assert abs(float(cell) - 1.0 / 3.0) < 1e-6

    def test_values_survive_text_round_trip(self, tmp_path):
        # %.17g output must reparse to the exact binary doubles produced.
        cfg = smoke_config(method="rk4", step=0.25, t_span=[0.0, 1.0])
        out = tmp_path / "rk4.csv"
        rc = main(["simulate", write_json(tmp_path, cfg), "--output", str(out)])
        assert rc == 0
        params = ModelParams(1.0, np.array([[1.0, 1.5, 0.5],
                                            [0.5, 1.0, 1.5],
                                            [1.5, 0.5, 1.0]]))
        traj = rk4_fixed(lambda x: rhs(params, x),
                         np.array([0.2, 0.2, 0.2]), 0.0, 1.0, 0.25)
        rows = data_rows(out.read_text())
        assert len(rows) == len(traj.times)
        for row, t, state in zip(rows, traj.times, traj.states):
            cells = [float(c) for c in row.split(",")]
            assert cells[0] == t
            assert cells[1:] == list(state)

    def test_blow_up_exits_2_with_trailer(self, tmp_path, capsys):
        out = tmp_path / "blow.csv"
        rc = main(["simulate", write_json(tmp_path, blow_up_config()),
                   "--output", str(out)])
        assert rc == 2
        trailer = comment_lines(out.read_text())[-1]
        assert trailer.startswith("# terminated=BlowUp t=")
        assert abs(float(trailer.split("t=")[1]) - LN2) < 1e-3
        assert "integration ended early" in capsys.readouterr().err

    def test_degenerate_span_writes_single_row(self, tmp_path, capsys):
        rc = main(["simulate",
                   write_json(tmp_path, smoke_config(t_span=[0.0, 0.0]))])
        assert rc == 0
        rows = data_rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0] == "0,0.20000000000000001,0.20000000000000001,0.20000000000000001"

    def test_json_format_records_termination(self, tmp_path, capsys):
        cfg = blow_up_config(output={"format": "json"})
        rc = main(["simulate", write_json(tmp_path, cfg)])
        assert rc == 2
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"times", "states", "terminated"}
        assert doc["terminated"]["kind"] == "BlowUp"
        assert abs(doc["terminated"]["t"] - LN2) < 1e-3
        assert len(doc["times"]) == len(doc["states"])

    def test_method_must_integrate(self, tmp_path, capsys):
        cfg = smoke_config(method="closed-form")
        rc = main(["simulate", write_json(tmp_path, cfg)])
        assert rc == 64
        assert "simulate needs method" in capsys.readouterr().err


class TestSpecial:
    def test_csv_report_comments(self, tmp_path, capsys):
        cfg = smoke_config(method="closed-form", t_span=[0.0, 5.0])
        rc = main(["special", write_json(tmp_path, cfg)])
        assert rc == 0
        text = capsys.readouterr().out
        assert len(data_rows(text)) == 501
        verify = [l for l in comment_lines(text) if l.startswith("# verify")]
        assert len(verify) == 1
        assert "passed=true" in verify[0]
        assert float(verify[0].split("max_residual=")[1].split()[0]) < 1e-10

    def test_file_output_prints_json_report(self, tmp_path, capsys):
        cfg = smoke_config(method="closed-form", t_span=[0.0, 5.0])
        out = tmp_path / "ray.csv"
        rc = main(["special", write_json(tmp_path, cfg), "--output", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["admissible"] is True
        assert abs(report["z"] - 0.6) < 1e-12
        assert report["blow_up_time"] is None
        assert report["samples"] == 501
        assert report["verify"]["passed"] is True
        assert report["verify"]["max_residual"] < 1e-10
        assert out.read_text().startswith("t,x1,x2,x3\n")

    def test_inadmissible_state_exits_1(self, tmp_path, capsys):
        cfg = {"mode": "real", "eta": 1.0,
               "couplings": {"a12": 2.0, "a13": 1.0, "a21": 1.0, "a23": 1.0,
                             "a31": 1.0, "a32": 1.0},
               "x0": [1.0, 1.0, 1.0], "t_span": [0.0, 5.0],
               "method": "closed-form"}
        rc = main(["special", write_json(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        doc = json.loads(captured.out)
        assert doc["admissible"] is False
        assert doc["report"]["e_values"] == [4.0, 3.0, 3.0]
        assert doc["report"]["z"] is None
        assert "failed admissibility" in captured.err

    def test_grid_points_near_pole_are_skipped(self, tmp_path, capsys):
        # Three-point grid whose midpoint lands on the pole at ln 2.
        cfg = blow_up_config(method="closed-form", t_span=[0.0, 2.0 * LN2],
                             grid_points=3)
        rc = main(["special", write_json(tmp_path, cfg)])
        assert rc == 0
        text = capsys.readouterr().out
        assert len(data_rows(text)) == 2
        skipped = [l for l in comment_lines(text) if l.startswith("# skipped")]
        assert len(skipped) == 1
        assert abs(float(skipped[0].split("t=")[1].split()[0]) - LN2) < 1e-12

    def test_complex_header_and_periodicity(self, tmp_path, capsys):
        cfg = {"mode": "complex", "eta": [0.0, 1.0],
               "symmetric": {"alpha": 1.0, "beta": 1.0},
               "x0": [0.25, 0.25, 0.5], "t_span": [0.0, 4.0 * math.pi],
               "method": "closed-form"}
        rc = main(["special", write_json(tmp_path, cfg)])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "t,re_x1,im_x1,re_x2,im_x2,re_x3,im_x3"
        periodicity = [l for l in comment_lines(text)
                       if l.startswith("# periodicity")]
        assert len(periodicity) == 1
        period = float(periodicity[0].split("period=")[1].split()[0])
        deviation = float(periodicity[0].split("deviation=")[1])
        assert abs(period - 2.0 * math.pi) < 1e-14
        assert deviation < 1e-10

    def test_json_format_embeds_report(self, tmp_path, capsys):
        cfg = smoke_config(method="closed-form", t_span=[0.0, 5.0],
                           grid_points=11, output={"format": "json"})
        rc = main(["special", write_json(tmp_path, cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"times", "states", "report"}
        assert len(doc["times"]) == 11
        assert doc["report"]["verify"]["passed"] is True

    def test_corrupted_z_reported_not_masked(self, tmp_path, capsys):
        cfg = smoke_config(method="closed-form", t_span=[0.0, 5.0],
                           z_override=0.9)
        rc = main(["special", write_json(tmp_path, cfg)])
        assert rc == 0
        verify = [l for l in comment_lines(capsys.readouterr().out)
                  if l.startswith("# verify")]
        assert "passed=false" in verify[0]


class TestSolve:
    def run_solve(self, tmp_path, capsys, request, *flags):
        rc = main(["solve", write_json(tmp_path, request, "request.json"),
                   *flags])
        out = capsys.readouterr().out
        return rc, json.loads(out) if out else None

    def test_unique_linear_pair(self, tmp_path, capsys):
        req = {"mode": "real",
               "known": {"a13": 1.0, "a23": 1.0, "a31": 1.0, "a32": 1.0,
                         "x1": 1.0, "x2": 1.0, "x3": 1.0},
               "unknowns": ["a12", "a21"]}
        rc, doc = self.run_solve(tmp_path, capsys, req)
        assert rc == 0
        assert doc["kind"] == "Unique"
        (sol,) = doc["solutions"]
        assert sol["values"] == {"a12": 1.0, "a21": 1.0}
        assert sol["z"] == 3.0
        assert max(abs(r) for r in sol["residuals"]) < 1e-12

    def test_unique_bilinear_pair(self, tmp_path, capsys):
        req = {"mode": "real",
               "known": {"x1": 1.0, "x3": 1.0, "a13": 0.5, "a21": 2.0,
                         "a23": 0.5, "a31": 0.5, "a32": 2.0},
               "unknowns": ["a12", "x2"]}
        rc, doc = self.run_solve(tmp_path, capsys, req)
        assert rc == 0
        assert doc["kind"] == "Unique"
        (sol,) = doc["solutions"]
        assert abs(sol["values"]["a12"] - 2.0) < 1e-12
        assert abs(sol["values"]["x2"] - 1.0) < 1e-12
        assert abs(sol["z"] - 3.5) < 1e-12

    def test_degenerate_family(self, tmp_path, capsys):
        req = {"mode": "real",
               "known": {"a21": 1.0, "a23": 1.0, "a31": 1.0, "a32": 1.0,
                         "x1": 1.0, "x2": 1.0, "x3": 1.0},
               "unknowns": ["a12", "a13"]}
        rc, doc = self.run_solve(tmp_path, capsys, req)
        assert rc == 0
        assert doc["kind"] == "DegenerateFamily"
        (sol,) = doc["solutions"]
        assert abs(sol["values"]["a12"] + sol["values"]["a13"] - 2.0) < 1e-12
        assert doc["description"]

    def test_inconsistent(self, tmp_path, capsys):
        req = {"mode": "real",
               "known": {"a21": 1.0, "a23": 2.0, "a31": 1.0, "a32": 1.0,
                         "x1": 1.0, "x2": 1.0, "x3": 2.0},
               "unknowns": ["a12", "a13"]}
        rc, doc = self.run_solve(tmp_path, capsys, req)
        assert rc == 0
        assert doc["kind"] == "Inconsistent"
        assert doc["solutions"] == []

    def test_complex_mode_values_as_pairs(self, tmp_path, capsys):
        req = {"mode": "complex",
               "known": {"a13": [1.0, 0.0], "a23": 1.0, "a31": 1.0,
                         "a32": 1.0, "x1": 1.0, "x2": 1.0, "x3": 1.0},
               "unknowns": ["a12", "a21"]}
        rc, doc = self.run_solve(tmp_path, capsys, req)
        assert rc == 0
        (sol,) = doc["solutions"]
        assert sol["values"]["a12"] == [1.0, 0.0]
        assert sol["z"] == [3.0, 0.0]

    def test_bad_slot_name_lists_valid_ones(self, tmp_path, capsys):
        req = {"known": {}, "unknowns": ["a12", "a99"]}
        rc = main(["solve", write_json(tmp_path, req, "request.json")])
        assert rc == 64
        err = capsys.readouterr().err
        assert "unknown slot name 'a99'" in err
        assert "valid slots" in err

    def test_wrong_known_count_rejected(self, tmp_path, capsys):
        req = {"known": {"a13": 1.0}, "unknowns": ["a12", "a21"]}
        rc = main(["solve", write_json(tmp_path, req, "request.json")])
        assert rc == 64

    def test_output_flag_writes_file(self, tmp_path, capsys):
        req = {"mode": "real",
               "known": {"a13": 1.0, "a23": 1.0, "a31": 1.0, "a32": 1.0,
                         "x1": 1.0, "x2": 1.0, "x3": 1.0},
               "unknowns": ["a12", "a21"]}
        out = tmp_path / "solution.json"
        rc, _ = self.run_solve(tmp_path, capsys, req, "--output", str(out))
        assert rc == 0
        assert json.loads(out.read_text())["kind"] == "Unique"


class TestVerify:
    def test_single_config_passes(self, tmp_path, capsys):
        cfg = smoke_config(method="closed-form", t_span=[0.0, 5.0])
        rc = main(["verify", write_json(tmp_path, cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["failed"] == []
        assert set(doc["checks"]) == {"admissibility", "ode_residual",
                                      "oracle_agreement", "ray_constancy"}
        for check in doc["checks"].values():
            assert check["measured"] <= check["threshold"]

    def test_corrupted_z_fails_ode_residual(self, tmp_path, capsys):
        cfg = smoke_config(method="closed-form", t_span=[0.0, 5.0],
                           z_override=0.9)
        rc = main(["verify", write_json(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert rc == 5
        doc = json.loads(captured.out)
        assert doc["passed"] is False
        assert "ode_residual" in doc["failed"]
        assert "ode_residual" in captured.err

    def test_inadmissible_state_short_circuits(self, tmp_path, capsys):
        cfg = {"mode": "real", "eta": 1.0,
               "couplings": {"a12": 2.0, "a13": 1.0, "a21": 1.0, "a23": 1.0,
                             "a31": 1.0, "a32": 1.0},
               "x0": [1.0, 1.0, 1.0], "t_span": [0.0, 5.0],
               "method": "closed-form"}
        rc = main(["verify", write_json(tmp_path, cfg)])
        assert rc == 5
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed"] == ["admissibility"]
        assert set(doc["checks"]) == {"admissibility"}

    def test_complex_config_checks_periodicity(self, tmp_path, capsys):
        cfg = {"mode": "complex", "eta": [0.0, 1.0],
               "symmetric": {"alpha": 1.0, "beta": 1.0},
               "x0": [0.25, 0.25, 0.5], "t_span": [0.0, 2.0 * math.pi],
               "method": "closed-form"}
        rc = main(["verify", write_json(tmp_path, cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert "periodicity" in doc["checks"]

    def test_batch_prints_one_line_per_seed(self, capsys):
        rc = main(["verify", "--batch", "3", "--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for offset, line in enumerate(lines):
            assert line.startswith(f"seed {5 + offset}: ok ")
            for name in ("ode_residual=", "oracle_agreement=", "ray_constancy="):
                assert name in line

    def test_batch_complex_includes_periodicity(self, capsys):
        rc = main(["verify", "--batch", "2", "--mode", "complex"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all("periodicity=" in line for line in lines)

    def test_batch_size_floor(self, capsys):
        rc = main(["verify", "--batch", "0"])
        assert rc == 64

    def test_config_required_without_batch(self, capsys):
        rc = main(["verify"])
        assert rc == 64
        assert "needs a config file" in capsys.readouterr().err


class TestMainDispatch:
    def test_missing_file_exits_3(self, capsys):
        rc = main(["simulate", "no_such_config.json"])
        assert rc == 3
        assert "i/o failure" in capsys.readouterr().err

    def test_no_command_prints_usage(self, capsys):
        rc = main([])
        assert rc == 64
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_rejected(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_config_error_exits_64(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"mode\": \"real\"}")
        rc = main(["simulate", str(path)])
        assert rc == 64
        assert "missing config key" in capsys.readouterr().err

    def test_oversized_integer_exits_64(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(smoke_config(eta=10**400)))
        rc = main(["simulate", str(path)])
        assert rc == 64
        err = capsys.readouterr().err
        assert "'eta' must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,overrides,message", [
        ("simulate", {"method": "rk4", "step": 1.0,
                      "t_span": [0.0, MAX_RK4_STEPS + 1.0]}, "RK4 steps"),
        ("special", {"method": "closed-form", "grid_points": MAX_GRID_POINTS + 1},
         "at most"),
    ])
    def test_work_caps_exit_64(self, tmp_path, capsys, command, overrides, message):
        path = write_json(tmp_path, smoke_config(**overrides))
        assert main([command, path]) == 64
        assert message in capsys.readouterr().err

    def test_diagnostics_honor_no_color(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        rc = main(["simulate", "no_such_config.json"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\x1b" not in err

    def test_mode_flag_overrides_config(self, tmp_path, capsys):
        # Complex-only [re, im] eta parses once the flag switches the mode.
        cfg = smoke_config(eta=[0.0, 1.0], t_span=[0.0, 1.0],
                           x0=[0.25, 0.25, 0.5],
                           symmetric={"alpha": 1.0, "beta": 1.0},
                           method="closed-form")
        rc = main(["special", write_json(tmp_path, cfg), "--mode", "complex"])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("t,re_x1")
