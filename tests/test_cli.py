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


def test_rules_prints_degree3_points(capsys):
    assert main(["rules", "--dim", "2", "--degree", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "weight,x1,x2"
    assert len(lines) == 1 + 4
    rows = [line.split(",") for line in lines[1:]]
    weights = [float(r[0]) for r in rows]
    points = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.allclose(weights, 0.25)
    assert np.allclose(sorted(np.abs(points).max(axis=1)), np.sqrt(2.0))


def test_rules_rejects_bad_dimension(capsys):
    assert main(["rules", "--dim", "0", "--degree", "5"]) == 1
    assert "error" in capsys.readouterr().err


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
    ],
    ids=[
        "negative-obs-var",
        "unknown-truth-x0",
        "truth-x0-wrong-dim",
        "nan-obs-var",
        "nan-prior-cov",
        "lorenz-g-of-two",
        "nan-beta",
    ],
)
def test_validate_rejects_what_run_would_fail_on(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
