"""Experiment harness: config parsing, grid runs, CSV output, determinism."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfilt import ExperimentConfig, FilterKind, RunResult, VariationalSettings, run_experiment, write_results
from gaussfilt.errors import ConfigError
from gaussfilt.filters import ALL_FAMILIES
from gaussfilt.harness import _parse_filter, filter_stream_seed, replicate_seed, splitmix64


def bistable_config(**overrides):
    raw = {
        "name": "bistable-smoke",
        "testbed": "bistable",
        "params": {"substeps": 5},
        "filters": [{"family": "LGF"}, {"family": "CGF", "rule_degree": 3}],
        "replicates": 2,
        "steps": 4,
        "seed": 7,
        "prior": {"mean": [0.8], "cov": [[0.02]]},
        "truth_x0": [0.8],
    }
    raw.update(overrides)
    return raw


class TestSeeds:
    def test_splitmix64_is_64_bit(self):
        for z in (0, 1, 2 ** 63, 2 ** 64 - 1):
            out = splitmix64(z)
            assert 0 <= out < 2 ** 64

    def test_splitmix64_spreads_nearby_inputs(self):
        a, b = splitmix64(0), splitmix64(1)
        assert bin(a ^ b).count("1") >= 16

    def test_replicate_seeds_distinct(self):
        seeds = {replicate_seed(7, r) for r in range(1000)}
        assert len(seeds) == 1000

    def test_filter_streams_distinct_per_label(self):
        rep = replicate_seed(7, 0)
        assert filter_stream_seed(rep, "LGF") != filter_stream_seed(rep, "CGF3")


def _one_filter_result(estimates, truths):
    """A RunResult of one filter, "F", from estimates (replicates, steps, d)
    and truths (replicates, steps + 1, d); nothing else is read."""
    est, tru = (np.asarray(v, dtype=float) for v in (estimates, truths))
    return RunResult(None, ["F"], 1.0, tru, {"F": est}, {})


class TestTimeAveragedRmse:
    def test_equal_inputs(self):
        result = _one_filter_result([[[1.0, 2.0]]], [[[9.0, 9.0], [1.0, 2.0]]])
        assert result.time_averaged_rmse("F").tolist() == [0.0]

    def test_single_element(self):
        assert _one_filter_result([[[0.0]]], [[[5.0], [2.0]]]).time_averaged_rmse("F").tolist() == [2.0]

    def test_hand_sum(self):
        result = _one_filter_result([[[0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]])
        assert np.isclose(result.time_averaged_rmse("F")[0], np.sqrt(25.0 / 2.0))

    def test_scaling_and_permutation(self):
        rng = np.random.default_rng(0)
        est, tru = rng.standard_normal((2, 10, 3)), rng.standard_normal((2, 11, 3))
        base = _one_filter_result(est, tru).time_averaged_rmse("F")
        scaled = _one_filter_result(3.0 * est, 3.0 * tru).time_averaged_rmse("F")
        assert np.allclose(scaled, 3.0 * base)
        perm = rng.permutation(10)
        permuted = _one_filter_result(est[:, perm], np.concatenate([tru[:, :1], tru[:, 1:][:, perm]], axis=1))
        assert np.allclose(permuted.time_averaged_rmse("F"), base)

    def test_window_and_components(self):
        result = _one_filter_result([[[0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]])
        assert result.time_averaged_rmse("F", window=(2, 2)).tolist() == [1.0]
        assert np.isclose(result.time_averaged_rmse("F", components=(1,))[0], np.sqrt(8.0))


TIGHT = VariationalSettings(grad_tol=1e-8, max_iter=50)

# (family, parameters, label, to_dict's filter entry) for every family, with
# default and non-default parameters.
FAMILY_TABLE = [
    ("LGF", {}, "LGF", {"family": "LGF"}),
    ("LGSF", {}, "LGSF", {"family": "LGSF"}),
    ("VGF", {}, "VGF", {"family": "VGF"}),
    ("VGF", {"variational": TIGHT}, "VGF[grad_tol=1e-08;max_iter=50]",
     {"family": "VGF", "variational": {"grad_tol": 1e-8, "max_iter": 50}}),
    ("VGSF", {}, "VGSF", {"family": "VGSF"}),
    ("VGSF", {"variational": VariationalSettings(max_iter=7)}, "VGSF[max_iter=7]",
     {"family": "VGSF", "variational": {"grad_tol": None, "max_iter": 7}}),
    ("CGF", {}, "CGF3", {"family": "CGF", "rule_degree": 3}),
    ("CGF", {"rule_degree": 5}, "CGF5", {"family": "CGF", "rule_degree": 5}),
    ("CGSF", {}, "CGSF3", {"family": "CGSF", "rule_degree": 3}),
    ("CGSF", {"rule_degree": 5}, "CGSF5", {"family": "CGSF", "rule_degree": 5}),
    ("PGF", {}, "PGF1000", {"family": "PGF", "sample_count": 1000}),
    ("PGF", {"sample_count": 10}, "PGF10", {"family": "PGF", "sample_count": 10}),
    ("PGSF", {}, "PGSF1000", {"family": "PGSF", "sample_count": 1000}),
    ("PGSF", {"sample_count": 10}, "PGSF10", {"family": "PGSF", "sample_count": 10}),
]

# family -> the ValueError messages for a non-default value of each parameter it does not read
NOT_READ = {
    "LGF": ("LGF does not read rule_degree", "LGF does not read sample_count", "LGF does not read variational"),
    "LGSF": ("LGSF does not read rule_degree", "LGSF does not read sample_count", "LGSF does not read variational"),
    "VGF": ("VGF does not read rule_degree", "VGF does not read sample_count"),
    "VGSF": ("VGSF does not read rule_degree", "VGSF does not read sample_count"),
    "CGF": ("CGF does not read sample_count", "CGF does not read variational"),
    "CGSF": ("CGSF does not read sample_count", "CGSF does not read variational"),
    "PGF": ("PGF does not read rule_degree", "PGF does not read variational"),
    "PGSF": ("PGSF does not read rule_degree", "PGSF does not read variational"),
}
NON_DEFAULT = {"rule_degree": 5, "sample_count": 10, "variational": TIGHT}


@pytest.mark.parametrize("family, params, label, entry", FAMILY_TABLE)
def test_every_family_labels_echoes_and_rejects_literally(family, params, label, entry):
    kind = FilterKind(family, **params)
    assert kind.label() == label
    cfg = ExperimentConfig.from_dict(bistable_config(filters=[entry]))
    assert cfg.filters == [kind]
    assert cfg.to_dict()["filters"] == [entry]
    for message in NOT_READ[family]:
        name = message.split()[-1]
        with pytest.raises(ValueError) as raised:
            FilterKind(family, **params, **{name: NON_DEFAULT[name]})
        assert str(raised.value) == message


class TestExperimentConfig:
    def test_roundtrip(self):
        cfg = ExperimentConfig.from_dict(bistable_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_from_dict_inverts_to_dict(self):
        cfg = ExperimentConfig.from_dict(
            bistable_config(
                filters=[
                    {"family": "CGF", "rule_degree": 5},
                    {"family": "PGF", "sample_count": 50},
                    {"family": "VGF", "variational": {"max_iter": 7, "grad_tol": 1e-5}},
                    {"family": "VGSF", "variational": {"grad_tol": 1e-7}},
                ],
                window=[2, 4],
            )
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("key", ["seed", "prior", "filters"])
    def test_missing_field(self, key):
        raw = bistable_config()
        del raw[key]
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(raw)

    def test_unknown_testbed(self):
        with pytest.raises(ConfigError, match="testbed"):
            ExperimentConfig.from_dict(bistable_config(testbed="pendulum"))

    def test_bad_filter_entry(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bistable_config(filters=[{"family": "EKF"}]))

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_dict(
                bistable_config(filters=[{"family": "LGF"}, {"family": "LGF"}])
            )

    def test_variational_settings_distinguish_labels(self):
        cfg = ExperimentConfig.from_dict(
            bistable_config(
                filters=[
                    {"family": "VGF"},
                    {"family": "VGF", "variational": {"grad_tol": 1e-8, "max_iter": 50}},
                ]
            )
        )
        assert [f.label() for f in cfg.filters] == ["VGF", "VGF[grad_tol=1e-08;max_iter=50]"]
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_dict(
                bistable_config(filters=[{"family": "VGF"}, {"family": "VGF", "variational": {}}])
            )

    def test_default_variational_settings_echo_as_omitted(self):
        explicit = ExperimentConfig.from_dict(
            bistable_config(filters=[{"family": "VGF", "variational": {"max_iter": 200}}])
        )
        omitted = ExperimentConfig.from_dict(bistable_config(filters=[{"family": "VGF"}]))
        assert explicit == omitted
        assert explicit.to_dict() == omitted.to_dict()
        assert explicit.to_dict()["filters"] == [{"family": "VGF"}]

    @pytest.mark.parametrize("entry", [{"family": "LGF"}, "LGF"])
    def test_a_direct_build_takes_only_filter_kinds(self, entry):
        cfg = ExperimentConfig.from_dict(bistable_config())
        with pytest.raises(ConfigError, match="filters must be FilterKind entries"):
            dataclasses.replace(cfg, filters=[FilterKind("VGF"), entry])

    def test_prior_dimension_checked(self):
        with pytest.raises(ConfigError, match="dim"):
            ExperimentConfig.from_dict(
                bistable_config(prior={"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})
            )

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError, match="params"):
            ExperimentConfig.from_dict(bistable_config(params={"wells": 3}))

    def test_window_validated(self):
        with pytest.raises(ConfigError, match="window"):
            ExperimentConfig.from_dict(bistable_config(window=[2, 9]))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"filters": [{"family": "VGF", "variational": {"grad_tol": -1}}]},
            {"filters": [{"family": "VGF", "variational": {"grad_tol": float("nan")}}]},
            {"filters": [{"family": "VGF", "variational": {"grad_tol": float("inf")}}]},
            {"filters": [{"family": "VGF", "variational": {"bogus": 1}}]},
            {"filters": [{"family": "CGF", "rule_degree": "x"}]},
            {"window": [1]},
            {"prior": {"mean": [0.8], "cov": [[-0.02]]}},
            {"truth_x0": "prior_sample"},
            {"truth_x0": [0.1, 0.2]},
            {"truth_x0": [float("nan")]},
            {"truth_x0": True},
            {"truth_x0": [True]},
            {"prior": {"mean": [True], "cov": [[0.02]]}},
            {"prior": {"mean": [0.8], "cov": [[True]]}},
            {"prior": {"mean": [[0.8, 0.1]], "cov": [[0.02]]}},
            {"testbed": "lorenz63", "params": {"g": [True, 0.0, 0.0]}, "truth_x0": "prior-sample",
             "prior": {"mean": [1.0, 1.0, 1.0], "cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
            {"name": 3},
            {"output_dir": ["out"]},
            {"filters": [{"family": "VGF", "variational": {"max_iter": 0}}]},
        ],
        ids=["negative-grad-tol", "nan-grad-tol", "infinite-grad-tol", "unknown-variational-field",
             "non-integer-degree", "short-window", "negative-prior-cov", "unknown-truth-x0", "truth-x0-wrong-dim",
             "truth-x0-not-finite", "boolean-truth-x0", "boolean-truth-x0-entry", "boolean-prior-mean",
             "boolean-prior-cov", "matrix-prior-mean", "boolean-lorenz-g", "non-string-name",
             "non-string-output-dir", "zero-max-iter"],
    )
    def test_malformed_fields_raise_config_error(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bistable_config(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"replicates": 2.7},
            {"steps": 3.9},
            {"seed": 1.5},
            {"replicates": True},
            {"steps": float("inf")},
            {"window": [1.5, 2.9]},
            {"filters": [{"family": "CGF", "rule_degree": 3.5}]},
            {"filters": [{"family": "PGF", "sample_count": 10.9}]},
            {"filters": [{"family": "PGF", "sample_count": True}]},
            {"filters": [{"family": "VGF", "variational": {"max_iter": 2.5}}]},
        ],
        ids=["fractional-replicates", "fractional-steps", "fractional-seed", "boolean-replicates",
             "infinite-steps", "fractional-window", "fractional-degree", "fractional-sample-count",
             "boolean-sample-count", "fractional-max-iter"],
    )
    def test_integer_fields_reject_booleans_and_fractions(self, overrides):
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentConfig.from_dict(bistable_config(**overrides))

    def test_integer_fields_accept_integral_values(self):
        cfg = ExperimentConfig.from_dict(bistable_config(
            replicates=2.0, steps=4.0, seed=7.0, window=[1.0, 4],
            filters=[{"family": "CGF", "rule_degree": 5.0}, {"family": "PGF", "sample_count": 10.0},
                     {"family": "VGF", "variational": {"max_iter": 3.0}}],
        ))
        assert (cfg.replicates, cfg.steps, cfg.seed, cfg.window) == (2, 4, 7, (1, 4))
        assert [f.label() for f in cfg.filters] == ["CGF5", "PGF10", "VGF[max_iter=3]"]
        assert all(type(v) is int for v in (cfg.replicates, cfg.steps, cfg.seed, *cfg.window,
                                            cfg.filters[2].variational.max_iter))

    def test_scalar_truth_x0_accepted_for_a_scalar_state(self):
        assert ExperimentConfig.from_dict(bistable_config(truth_x0=0.8)).truth_x0 == 0.8

    def test_directly_built_unknown_truth_x0_is_not_sampled(self):
        cfg = ExperimentConfig.from_dict(bistable_config())
        with pytest.raises(ConfigError, match="prior_sample"):
            dataclasses.replace(cfg, truth_x0="prior_sample")

    @pytest.mark.parametrize(
        "changes,match,raw_changes",
        [
            ({"seed": -1}, "seed", None),
            ({"seed": 2 ** 64}, "seed", None),
            ({"replicates": 0}, "replicates", None),
            ({"steps": 0}, "steps", None),
            ({"window": (5, 9)}, "window", None),
            ({"filters": [FilterKind("LGF"), FilterKind("LGF")]}, "duplicate",
             {"filters": [{"family": "LGF"}, {"family": "LGF"}]}),
            ({"filters": []}, "at least one filter", None),
            ({"testbed": "nope"}, "'nope'", None),
            ({"replicates": True}, "replicates must be an integer", None),
            ({"prior_mean": [0.0, 0.0], "prior_cov": [[1.0, 0.0], [0.0, 1.0]]}, "prior dim 2",
             {"prior": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}),
            ({"truth_x0": [0.1, 0.2]}, "truth_x0", None),
        ],
        ids=["negative-seed", "seed-past-64-bits", "no-replicates", "no-steps", "window-past-steps",
             "duplicate-labels", "no-filters", "unknown-testbed", "boolean-replicates",
             "prior-wrong-dim", "truth-x0-wrong-shape"],
    )
    def test_run_experiment_rejects_what_from_dict_rejects(self, changes, match, raw_changes):
        # The config checks itself at construction, so the grid never sees these.
        cfg = ExperimentConfig.from_dict(bistable_config(replicates=1, steps=2))
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({**bistable_config(replicates=1, steps=2), **(raw_changes or changes)})
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(cfg, **changes)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bistable_config()), encoding="utf-8")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.name == "bistable-smoke"

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)


# Each FilterKind parameter: the families that read it, and its valid values.
_FAMILY_PARAMETERS = {
    "rule_degree": (("CGF", "CGSF"), st.sampled_from([3, 5])),
    "sample_count": (("PGF", "PGSF"), st.integers(2, 5000)),
    "variational": (("VGF", "VGSF"), st.fixed_dictionaries({}, optional={
        "grad_tol": st.floats(1e-12, 1.0),
        "max_iter": st.integers(1, 500),
    })),
}


@st.composite
def filter_entries(draw):
    """One JSON filter entry, with the fields ``to_dict`` writes for its family."""
    entry = {"family": draw(st.sampled_from(ALL_FAMILIES))}
    if entry["family"] in ("CGF", "CGSF"):
        entry["rule_degree"] = draw(_FAMILY_PARAMETERS["rule_degree"][1])
    if entry["family"] in ("PGF", "PGSF"):
        entry["sample_count"] = draw(_FAMILY_PARAMETERS["sample_count"][1])
    if entry["family"] in ("VGF", "VGSF") and draw(st.booleans()):
        entry["variational"] = draw(_FAMILY_PARAMETERS["variational"][1])
    return entry


_STATE_DIMS = {"bistable": 1, "lorenz63": 3, "tracking": 5}
_PARAMS = {"bistable": {"substeps": 5}, "lorenz63": {"obs_var": 0.25}, "tracking": {"q": 1e-3}}
_NUMBERS = st.floats(-10.0, 10.0)


@st.composite
def raw_configs(draw):
    """A valid JSON config on any testbed, with or without the optional keys."""
    testbed = draw(st.sampled_from(sorted(_STATE_DIMS)))
    d, steps = _STATE_DIMS[testbed], draw(st.integers(1, 50))
    raw = {
        "name": draw(st.text(max_size=8)),
        "testbed": testbed,
        "filters": draw(st.lists(filter_entries(), min_size=1, max_size=4,
                                 unique_by=lambda entry: _parse_filter(entry).label())),
        "replicates": draw(st.integers(1, 100)),
        "steps": steps,
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
        "prior": {
            "mean": draw(st.lists(_NUMBERS, min_size=d, max_size=d)),
            "cov": np.diag(draw(st.lists(st.floats(1e-3, 10.0), min_size=d, max_size=d))).tolist(),
        },
    }
    optional = {
        "params": st.sampled_from([{}, _PARAMS[testbed]]),
        "truth_x0": st.one_of(st.just("prior-sample"), st.lists(_NUMBERS, min_size=d, max_size=d)),
        "output_dir": st.text(min_size=1, max_size=8),
        "window": st.integers(1, steps).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, steps)))
        .map(list),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(values)
    return raw


class TestConfigSchema:
    @settings(max_examples=50, deadline=None)
    @given(raw_configs())
    def test_from_dict_inverts_to_dict(self, raw):
        cfg = ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @settings(max_examples=50, deadline=None)
    @given(raw_configs(), st.data())
    def test_an_unknown_key_at_any_level_is_a_config_error(self, raw, data):
        levels = {
            "top level": (raw, {f.name for f in dataclasses.fields(ExperimentConfig)} | {"prior"}),
            "prior": (raw["prior"], {"mean", "cov"}),
        }
        for i, entry in enumerate(raw["filters"]):
            levels[f"filter {i}"] = (entry, {f.name for f in dataclasses.fields(FilterKind)})
            if "variational" in entry:
                levels[f"filter {i} variational"] = (
                    entry["variational"], {f.name for f in dataclasses.fields(VariationalSettings)})
        target, known = levels[data.draw(st.sampled_from(sorted(levels)))]
        key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
                        .filter(lambda k: k not in known))
        target[key] = 1
        with pytest.raises(ConfigError, match=repr(key)):
            ExperimentConfig.from_dict(raw)

    @settings(max_examples=50, deadline=None)
    @given(raw_configs(), st.data())
    def test_a_parameter_its_family_does_not_read_is_a_config_error(self, raw, data):
        # It would validate and then vanish from the echo: {"family": "LGF",
        # "sample_count": 10} would echo as {"family": "LGF"}.
        entry = data.draw(st.sampled_from(raw["filters"]))
        key = data.draw(st.sampled_from(
            sorted(k for k, (readers, _) in _FAMILY_PARAMETERS.items() if entry["family"] not in readers)))
        default = {f.name: f.default for f in dataclasses.fields(FilterKind)}[key]
        entry[key] = data.draw(_FAMILY_PARAMETERS[key][1].filter(lambda v: v != default))
        with pytest.raises(ConfigError, match=f"{entry['family']} does not read {key}"):
            ExperimentConfig.from_dict(raw)


class TestRunExperiment:
    def test_shapes_and_determinism(self):
        cfg = ExperimentConfig.from_dict(bistable_config())
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.truths.shape == (2, 5, 1)
        for lab in a.labels:
            assert a.estimates[lab].shape == (2, 4, 1)
            assert np.array_equal(a.estimates[lab], b.estimates[lab])
        assert np.array_equal(a.truths, b.truths)

    def test_noiseless_identity_rmse_shrinks(self):
        raw = bistable_config(
            params={"substeps": 1, "sigma": 1e-9, "obs_var": 1e-12},
            filters=[{"family": "LGF"}],
            replicates=1,
            steps=30,
        )
        result = run_experiment(ExperimentConfig.from_dict(raw))
        err = result.per_step_errors("LGF")[0]
        assert err[-1] <= 1e-5

    def test_adding_filter_does_not_perturb_existing(self):
        base = ExperimentConfig.from_dict(
            bistable_config(filters=[{"family": "PGF", "sample_count": 50}])
        )
        more = ExperimentConfig.from_dict(
            bistable_config(
                filters=[{"family": "PGF", "sample_count": 50}, {"family": "LGF"}]
            )
        )
        a, b = run_experiment(base), run_experiment(more)
        assert np.array_equal(a.estimates["PGF50"], b.estimates["PGF50"])

    def test_time_averaged_window(self):
        cfg = ExperimentConfig.from_dict(bistable_config(window=[2, 4]))
        result = run_experiment(cfg)
        err = result.per_step_errors("LGF")
        expected = np.sqrt(np.mean(err[:, 1:4] ** 2, axis=1))
        assert np.allclose(result.time_averaged_rmse("LGF", window=cfg.window), expected)

    def test_aborted_trajectory_is_recorded_and_back_filled(self):
        # A prior straddling both wells at beta 150: a CGSF5 point pushed far
        # enough out leaves the Euler-Maruyama domain at the first step, so
        # every step keeps the last mean, the prior's.
        raw = bistable_config(
            params={"beta": 150},
            filters=[{"family": "CGSF", "rule_degree": 5}, {"family": "LGF"}],
            replicates=1,
            steps=3,
            prior={"mean": [0.1], "cov": [[0.5]]},
            truth_x0="prior-sample",
        )
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert [(r, lab) for r, lab, _ in result.failures] == [(0, "CGSF5")]
        assert result.failures[0][2] == "pushed points are not finite"
        assert np.array_equal(result.estimates["CGSF5"], np.full((1, 3, 1), 0.1))
        assert np.array_equal(result.diagnostics["CGSF5"], np.zeros((1, 3, 3)))
        assert np.all(result.estimates["LGF"] != 0.1)

    @pytest.mark.parametrize(
        "testbed, mean, var, dt_obs",
        [
            ("lorenz63", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.01),
            ("tracking", [1e3, 3e2, 1e3, 0.0, -0.05], [100.0, 10.0, 100.0, 10.0, 1e-4], 1.0),
        ],
    )
    def test_prior_sample_truth_on_each_testbed(self, testbed, mean, var, dt_obs):
        raw = bistable_config(
            testbed=testbed,
            params={},
            filters=[{"family": "CGF", "rule_degree": 3}],
            replicates=2,
            steps=2,
            prior={"mean": mean, "cov": np.diag(var).tolist()},
            truth_x0="prior-sample",
        )
        result = run_experiment(ExperimentConfig.from_dict(raw))
        assert result.dt_obs == dt_obs and not result.failures
        assert result.truths.shape == (2, 3, len(mean))
        assert np.isfinite(result.estimates["CGF3"]).all()
        for r in range(2):
            # the truth starts from a draw of N(mean, diag(var)) on the replicate's stream
            z = np.random.default_rng(replicate_seed(7, r)).standard_normal(len(mean))
            assert np.allclose(result.truths[r, 0], np.array(mean) + np.sqrt(var) * z)


class TestWriteResults:
    def test_files_and_row_counts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(bistable_config(output_dir=str(tmp_path / "out")))
        result = run_experiment(cfg)
        files = write_results(result, cfg.output_dir)
        per_step, summary, echo = files
        lines = per_step.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,filter,step,time,rmse,fallbacks,jitters,bfgs_iterations"
        assert len(lines) == 1 + 2 * 2 * 4  # replicates x filters x steps
        sums = summary.read_text(encoding="utf-8").splitlines()
        assert sums[0] == "filter,metric,mean_rmse,var_rmse"
        assert len(sums) == 1 + 2  # one bistable metric per filter
        echoed = json.loads(echo.read_text(encoding="utf-8"))
        assert echoed["name"] == cfg.name

    def test_summary_recomputable_from_per_step(self, tmp_path):
        cfg = ExperimentConfig.from_dict(bistable_config(output_dir=str(tmp_path / "out")))
        result = run_experiment(cfg)
        per_step, summary, _ = write_results(result, cfg.output_dir)
        # independent aggregation of the raw CSV
        rows = [line.split(",") for line in per_step.read_text().splitlines()[1:]]
        by_filter = {}
        for r, lab, step, _t, err, _f, _j, _b in rows:
            by_filter.setdefault(lab, {}).setdefault(int(r), []).append(float(err))
        for line in summary.read_text().splitlines()[1:]:
            lab, _metric, mean_rmse, var_rmse = line.split(",")
            ta = [np.sqrt(np.mean(np.square(v))) for _, v in sorted(by_filter[lab].items())]
            assert np.isclose(float(mean_rmse), np.mean(ta))
            assert np.isclose(float(var_rmse), np.var(ta, ddof=1))

    def test_bfgs_iterations_column(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            bistable_config(
                filters=[{"family": "LGF"}, {"family": "VGSF"}], output_dir=str(tmp_path / "out")
            )
        )
        result = run_experiment(cfg)
        per_step, _, _ = write_results(result, cfg.output_dir)
        rows = [line.split(",") for line in per_step.read_text().splitlines()[1:]]
        iterations = {lab: [] for lab in result.labels}
        for r, lab, step, *_, bfgs in rows:
            iterations[lab].append(int(bfgs))
            assert int(bfgs) == result.diagnostics[lab][int(r), int(step) - 1, 2]
        assert set(iterations["LGF"]) == {0}
        assert min(iterations["VGSF"]) >= 1

    def test_byte_identical_reruns(self, tmp_path):
        raw = bistable_config(
            filters=[{"family": "LGF"}, {"family": "PGF", "sample_count": 50}]
        )
        outs = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig.from_dict(dict(raw, output_dir=str(tmp_path / sub)))
            files = write_results(run_experiment(cfg), cfg.output_dir)
            outs.append([f.read_bytes() for f in files[:2]])
        assert outs[0] == outs[1]
