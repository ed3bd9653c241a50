"""Fresh runs of the golden grids against the committed ``golden_results.json``.

A change that should not move any result (a refactor, a speedup) must keep
this test passing; a change that moves results on purpose regenerates the
file with ``PYTHONPATH=src python3 tests/golden.py`` and says why.

Floats must agree to 1e-9, relative to the largest magnitude in their array;
counters and failure messages must agree exactly.  Only one NumPy/BLAS build
was available to set that tolerance: every float matched to the byte there,
so 1e-9 is an allowance for another build's summation order, not a measured
spread.
"""

import json

import numpy as np
import pytest

import golden

RTOL = 1e-9
EXPECTED = json.loads(golden.PATH.read_text(encoding="utf-8"))


def assert_close(actual, expected, what):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, what
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * np.max(np.abs(expected)), err_msg=what)


def test_the_file_covers_every_grid_and_seed():
    assert sorted(EXPECTED) == sorted(f"{name}/seed{seed}" for name in golden.CONFIGS for seed in golden.SEEDS)


@pytest.mark.parametrize("name", golden.CONFIGS)
@pytest.mark.parametrize("seed", golden.SEEDS)
def test_results_match_the_golden_file(name, seed):
    expected = EXPECTED[f"{name}/seed{seed}"]
    actual = golden.summarize(golden.config(name, seed))
    assert actual["failures"] == expected["failures"]
    assert list(actual["filters"]) == list(expected["filters"])
    for label, entries in expected["filters"].items():
        assert len(actual["filters"][label]) == len(entries)
        for r, (got, want) in enumerate(zip(actual["filters"][label], entries)):
            where = f"{name} seed {seed} {label} replicate {r}"
            assert got["counters"] == want["counters"], where
            for key in ("rmse", "mean", "cov"):
                assert_close(got[key], want[key], f"{where} {key}")
