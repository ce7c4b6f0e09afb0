"""Application config files: loading and validation."""

import json
from pathlib import Path

import pytest

from repro.core.configfile import (application_from_config,
                                   load_application,
                                   resolve_operator_class)
from repro.errors import ConfigurationError


def retailer_config() -> dict:
    return {
        "name": "retailer-counts",
        "streams": [{"sid": "S1", "external": True}, {"sid": "S2"}],
        "operators": [
            {"name": "M1", "kind": "map",
             "class": "repro.apps.retailer_count.RetailerMapper",
             "subscribes": ["S1"], "publishes": ["S2"]},
            {"name": "U1", "kind": "update",
             "class": "repro.apps.retailer_count.CheckinCounter",
             "subscribes": ["S2"],
             "config": {"slate_ttl": 86400.0}},
        ],
        "outputs": ["S2"],
    }


class TestResolveOperatorClass:
    def test_resolves_real_class(self):
        from repro.apps.retailer_count import RetailerMapper

        cls = resolve_operator_class(
            "repro.apps.retailer_count.RetailerMapper")
        assert cls is RetailerMapper

    def test_bad_module(self):
        with pytest.raises(ConfigurationError, match="cannot import"):
            resolve_operator_class("no.such.module.Thing")

    def test_bad_class(self):
        with pytest.raises(ConfigurationError, match="no class"):
            resolve_operator_class("repro.apps.retailer_count.Nope")

    def test_non_operator_class(self):
        with pytest.raises(ConfigurationError, match="not a Mapper"):
            resolve_operator_class("pathlib.Path")

    def test_bare_name_rejected(self):
        with pytest.raises(ConfigurationError, match="dotted"):
            resolve_operator_class("JustAName")


class TestApplicationFromConfig:
    def test_builds_and_validates(self):
        app = application_from_config(retailer_config())
        assert app.name == "retailer-counts"
        assert [s.name for s in app.operators() if s.kind == "map"] == ["M1"]
        assert app.operator("U1").config["slate_ttl"] == 86400.0
        assert app.output_sids == ["S2"]

    def test_operator_config_reaches_instances(self):
        app = application_from_config(retailer_config())
        instance = app.operator("U1").instantiate()
        assert instance.slate_ttl == 86400.0

    def test_missing_top_level_key(self):
        config = retailer_config()
        del config["streams"]
        with pytest.raises(ConfigurationError):
            application_from_config(config)

    def test_missing_operator_field(self):
        config = retailer_config()
        del config["operators"][0]["subscribes"]
        with pytest.raises(ConfigurationError, match="subscribes"):
            application_from_config(config)

    def test_kind_class_mismatch(self):
        config = retailer_config()
        config["operators"][0]["kind"] = "update"  # RetailerMapper is a map
        with pytest.raises(ConfigurationError, match="not a Updater"):
            application_from_config(config)

    def test_unknown_kind(self):
        config = retailer_config()
        config["operators"][0]["kind"] = "reduce"
        with pytest.raises(ConfigurationError, match="map.*update"):
            application_from_config(config)

    def test_workflow_validation_still_applies(self):
        config = retailer_config()
        config["operators"][0]["publishes"] = ["S_undeclared"]
        with pytest.raises(ConfigurationError):
            application_from_config(config)


class TestLoadApplication:
    def test_load_from_file(self, tmp_path: Path):
        path = tmp_path / "app.json"
        path.write_text(json.dumps(retailer_config()))
        app = load_application(path)
        assert app.name == "retailer-counts"

    def test_missing_file(self, tmp_path: Path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_application(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path: Path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_application(path)

    def test_non_object_json(self, tmp_path: Path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_application(path)

    def test_shipped_example_configs_load(self):
        repo = Path(__file__).resolve().parents[2]
        for name in ("retailer.json", "reputation.json"):
            app = load_application(repo / "examples" / "configs" / name)
            assert app.operators()
