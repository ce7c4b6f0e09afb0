"""Spec validation and hook resolution."""

from pathlib import Path

import pytest

from repro.campaign.spec import resolve_ref
from repro.errors import ConfigurationError
from tests.campaign.toy import toy_cell, toy_spec


class TestResolveRef:
    def test_resolves_module_callable(self):
        assert resolve_ref("tests.campaign.toy:toy_cell") is toy_cell

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError, match="module:callable"):
            resolve_ref("tests.campaign.toy.toy_cell")

    def test_rejects_missing_module(self):
        with pytest.raises(ConfigurationError, match="cannot import"):
            resolve_ref("tests.campaign.nope:toy_cell")

    def test_rejects_missing_attr(self):
        with pytest.raises(ConfigurationError, match="no attribute"):
            resolve_ref("tests.campaign.toy:nope")

    def test_rejects_non_callable(self):
        with pytest.raises(ConfigurationError, match="callable"):
            resolve_ref("tests.campaign.toy:TOY_CONSTANT")


class TestSpecValidation:
    def test_valid_spec_builds(self):
        spec = toy_spec()
        assert spec.grid_for(smoke=False) == {"a": [1, 2], "b": [3, 4]}
        assert spec.grid_for(smoke=True) == {"a": [1], "b": [3]}

    def test_smoke_falls_back_to_full_grid(self):
        spec = toy_spec(smoke_grid=None)
        assert spec.grid_for(smoke=True) == spec.grid

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            toy_spec(grid={})

    def test_non_scalar_grid_value_rejected(self):
        with pytest.raises(ConfigurationError, match="non-scalar"):
            toy_spec(grid={"a": [[1, 2]], "b": [3]}, smoke_grid=None)

    def test_string_grid_values_rejected(self):
        # A bare string is a Sequence; it must not count as a value list.
        with pytest.raises(ConfigurationError, match="sequence"):
            toy_spec(grid={"a": "12", "b": [3]}, smoke_grid=None)

    def test_fixed_and_swept_param_rejected(self):
        with pytest.raises(ConfigurationError, match="both fixed"):
            toy_spec(fixed={"a": 9})

    def test_smoke_grid_must_sweep_same_params(self):
        with pytest.raises(ConfigurationError, match="same parameters"):
            toy_spec(smoke_grid={"a": [1]})

    def test_smoke_grid_values_must_be_subset(self):
        with pytest.raises(ConfigurationError, match="outside the full grid"):
            toy_spec(smoke_grid={"a": [99], "b": [3]})

    def test_committed_path_default_and_override(self):
        root = Path("/repo")
        assert toy_spec().committed_path(root) == (
            root / "campaigns" / "results" / "toy.json"
        )
        spec = toy_spec(artifact="BENCH_TOY.json")
        assert spec.committed_path(root) == root / "BENCH_TOY.json"
        assert spec.markdown_path(root) == root / "campaigns" / "results" / "toy.md"
