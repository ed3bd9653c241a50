"""Command-line interface: run, validate, rules subcommands."""

import json

import numpy as np
import pytest

from gaussfilt.cli import main


def write_config(tmp_path, **overrides):
    raw = {
        "name": "cli-smoke",
        "testbed": "bistable",
        "params": {"substeps": 5},
        "filters": [{"family": "LGF"}],
        "replicates": 1,
        "steps": 3,
        "seed": 11,
        "prior": {"mean": [0.8], "cov": [[0.02]]},
        "truth_x0": [0.8],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, testbed="pendulum")
    assert main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_writes_files(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (tmp_path / "out" / "per_step.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert len(out) == 3


def test_run_seed_override_changes_output(tmp_path):
    path = write_config(tmp_path)
    main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "99"])
    a = (tmp_path / "a" / "per_step.csv").read_text()
    b = (tmp_path / "b" / "per_step.csv").read_text()
    assert a != b


R2 = "1.4142135623730951"  # repr(sqrt(2))


@pytest.mark.parametrize(
    "degree,rows",
    [
        # +-sqrt(2) e_i; the negative points are formed by subtraction from
        # +0.0, as symmetric_stencil forms them, so their off-axis zeros print as 0.0
        (3, [f"0.25,{R2},0.0", f"0.25,0.0,{R2}", f"0.25,-{R2},0.0", f"0.25,0.0,-{R2}"]),
        # the origin, +-2 e_i, then (+-sqrt(2), +-sqrt(2)) in the order ++, +-, -+, --
        (5, ["0.5,0.0,0.0", "0.0625,2.0,0.0", "0.0625,-2.0,0.0", "0.0625,0.0,2.0", "0.0625,0.0,-2.0",
             f"0.0625,{R2},{R2}", f"0.0625,{R2},-{R2}", f"0.0625,-{R2},{R2}", f"0.0625,-{R2},-{R2}"]),
    ],
    ids=["degree3", "degree5"],
)
def test_rules_prints_points(capsys, degree, rows):
    assert main(["rules", "--dim", "2", "--degree", str(degree)]) == 0
    assert capsys.readouterr().out == "\n".join(["weight,x1,x2"] + rows) + "\n"


def test_rules_rejects_bad_dimension(capsys):
    assert main(["rules", "--dim", "0", "--degree", "5"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_with_a_diverging_truth_exits_2(tmp_path, capsys):
    # dt * beta = 2.5: Euler-Maruyama leaves the wells in the first step.
    path = write_config(tmp_path, params={"beta": 250})
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: truth rollout diverged at step 1:") and "not finite" in err
    assert not (tmp_path / "out").exists()


def test_run_with_an_aborted_trajectory_warns_and_exits_0(tmp_path, capsys):
    # At beta 150 the truth stays in its well, but a CGF point pushed far
    # enough out leaves the Euler-Maruyama domain: the trajectory aborts with
    # a warning, the run still writes its files.
    path = write_config(tmp_path, params={"beta": 150}, filters=[{"family": "CGF"}])
    assert main(["run", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: replicate 0 filter CGF3 aborted: pushed points are not finite\n"
    assert len(captured.out.splitlines()) == 3
    assert (tmp_path / "out" / "summary.csv").exists()


def test_run_into_a_path_under_a_regular_file_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(blocker / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("io error:") and captured.out == ""


def test_validate_malformed_field_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, window=[1])
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "overrides",
    [{"steps": 3.9}, {"replicates": True}, {"filters": [{"family": "VGF", "variational": {"max_iter": 2.5}}]},
     {"params": {"substeps": True}}, {"params": {"substeps": 2.5}}, {"replicates": "2"},
     {"params": {"substeps": "2"}}],
    ids=["fractional-steps", "boolean-replicates", "fractional-max-iter", "boolean-substeps",
         "fractional-substeps", "string-replicates", "string-substeps"],
)
def test_validate_rejects_a_non_integer_count(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", str(path)]) == 1
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"filters": [{"family": "PGF", "sample_cout": 10}]}, "sample_cout"),
        ({"windw": [1, 2]}, "windw"),
        ({"prior": {"mean": [0.8], "cov": [[0.02]], "sd": [0.1]}}, "sd"),
        ({"filters": [{"family": "VGF", "variational": {"fd_step": 1e-6}}]}, "fd_step"),
        ({"prior_mean": [0.8]}, "prior_mean"),
    ],
    ids=["filter-key", "top-level-key", "prior-key", "variational-key", "field-name-as-key"],
)
def test_validate_rejects_an_unknown_key(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err


def test_integral_float_substeps_runs_as_the_integer(tmp_path):
    for sub, substeps in (("a", 2.0), ("b", 2)):
        path = write_config(tmp_path, params={"substeps": substeps}, output_dir=str(tmp_path / sub))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path)]) == 0
    for name in ("per_step.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_rejects_out_of_range_seed_override(tmp_path, capsys):
    path = write_config(tmp_path)
    for seed in ("-1", "18446744073709551616"):
        assert main(["run", "--config", str(path), "--seed", seed]) == 1
        assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_run_overrides_round_trip_through_config_echo(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--seed", "99", "--out", str(tmp_path / "b")]) == 0
    echo = tmp_path / "b" / "config_echo"
    assert json.loads(echo.read_text())["seed"] == 99
    assert main(["validate", "--config", str(echo)]) == 0


@pytest.mark.parametrize(
    "overrides",
    [
        {
            "testbed": "lorenz63",
            "params": {"obs_var": -0.5},
            "prior": {"mean": [1.0, 1.0, 1.0], "cov": np.eye(3).tolist()},
            "truth_x0": "prior-sample",
        },
        {"truth_x0": "prior_sample"},
        {"truth_x0": [0.1, 0.2]},
        {"params": {"substeps": 5, "obs_var": float("nan")}},
        {"prior": {"mean": [0.8], "cov": [[float("nan")]]}},
        {
            "testbed": "lorenz63",
            "params": {"g": [0.0, 0.5]},
            "prior": {"mean": [1.0, 1.0, 1.0], "cov": np.eye(3).tolist()},
            "truth_x0": "prior-sample",
        },
        {"params": {"beta": float("nan")}},
        {
            "testbed": "lorenz63",
            "params": {"sigma": "10"},
            "prior": {"mean": [1.0, 1.0, 1.0], "cov": np.eye(3).tolist()},
            "truth_x0": "prior-sample",
        },
        {
            "testbed": "lorenz63",
            "params": {"obs_shift": "0.5"},
            "prior": {"mean": [1.0, 1.0, 1.0], "cov": np.eye(3).tolist()},
            "truth_x0": "prior-sample",
        },
        {"params": {"substeps": 5, "sigma": "0.5"}},
    ],
    ids=[
        "negative-obs-var",
        "unknown-truth-x0",
        "truth-x0-wrong-dim",
        "nan-obs-var",
        "nan-prior-cov",
        "lorenz-g-of-two",
        "nan-beta",
        "string-lorenz-sigma",
        "string-obs-shift",
        "string-bistable-sigma",
    ],
)
def test_validate_rejects_what_run_would_fail_on(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
