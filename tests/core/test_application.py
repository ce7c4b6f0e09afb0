"""Workflow graphs: construction, introspection, validation rules."""

import pytest

import repro.apps
from repro.core.application import Application
from repro.errors import WorkflowError
from tests.conftest import CountingUpdater, EchoMapper, ForwardingUpdater


def minimal_app() -> Application:
    app = Application("t")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_mapper("M1", EchoMapper, subscribes=["S1"], publishes=["S2"])
    app.add_updater("U1", CountingUpdater, subscribes=["S2"])
    return app


class TestConstruction:
    def test_valid_app_validates(self):
        assert minimal_app().validate() is not None

    def test_duplicate_operator_name_rejected(self):
        app = minimal_app()
        with pytest.raises(WorkflowError, match="duplicate"):
            app.add_mapper("M1", EchoMapper, subscribes=["S1"])

    def test_operator_must_subscribe_to_something(self):
        app = minimal_app()
        with pytest.raises(WorkflowError, match="subscribes to nothing"):
            app.add_mapper("M2", EchoMapper, subscribes=[])

    def test_prebuilt_instance_is_shared(self):
        app = Application("t")
        app.add_stream("S1", external=True)
        instance = CountingUpdater(name="U1")
        spec = app.add_updater("U1", instance, subscribes=["S1"])
        assert spec.instantiate() is spec.instantiate() is instance

    def test_class_factory_makes_fresh_instances(self):
        spec = minimal_app().operator("U1")
        assert spec.instantiate() is not spec.instantiate()

    def test_factory_kind_mismatch_detected(self):
        app = Application("t")
        app.add_stream("S1", external=True)
        app.add_mapper("M1", CountingUpdater, subscribes=["S1"])  # wrong kind
        with pytest.raises(WorkflowError, match="factory produced"):
            app.operator("M1").instantiate()

    def test_instances_receive_config_and_name(self):
        app = Application("t")
        app.add_stream("S1", external=True)
        app.add_updater("U9", CountingUpdater, subscribes=["S1"],
                        config={"slate_ttl": 5.0})
        instance = app.operator("U9").instantiate()
        assert instance.get_name() == "U9"
        assert instance.slate_ttl == 5.0


class TestIntrospection:
    def test_subscribers_and_publishers(self):
        app = minimal_app()
        assert [s.name for s in app.subscribers_of("S2")] == ["U1"]
        assert [s.name for s in app.publishers_of("S2")] == ["M1"]
        assert app.subscribers_of("S1")[0].name == "M1"

    def test_mappers_updaters_partition(self):
        app = minimal_app()
        assert [s.name for s in app.mappers()] == ["M1"]
        assert [s.name for s in app.updaters()] == ["U1"]

    def test_unknown_operator_raises(self):
        with pytest.raises(WorkflowError, match="unknown operator"):
            minimal_app().operator("nope")

    @pytest.mark.parametrize("build", sorted(
        name for name in repro.apps.__all__ if name.startswith("build_")))
    def test_has_cycle_on_every_shipped_app(self, build):
        """Only the reputation workflow loops: U1 endorses through S3."""
        assert getattr(repro.apps, build)().has_cycle() \
            == (build == "build_reputation_app")

    def test_acyclic_app_has_no_cycle(self):
        assert not minimal_app().has_cycle()

    def test_cycle_allowed_and_detected(self):
        """Section 3: the workflow graph is 'directed ... allowing cycles'."""
        app = Application("loop")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_updater("U1", ForwardingUpdater, subscribes=["S1", "S2"],
                        publishes=["S2"], config={"output_sid": "S2"})
        app.validate()
        assert app.has_cycle()


class TestValidation:
    def test_no_operators_rejected(self):
        app = Application("t")
        app.add_stream("S1", external=True)
        with pytest.raises(WorkflowError, match="no operators"):
            app.validate()

    def test_no_external_stream_rejected(self):
        app = Application("t")
        app.add_stream("S2")
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        with pytest.raises(WorkflowError, match="no external stream"):
            app.validate()

    def test_undeclared_stream_reference_rejected(self):
        app = Application("t")
        app.add_stream("S1", external=True)
        app.add_mapper("M1", EchoMapper, subscribes=["S1"],
                       publishes=["S9"])
        with pytest.raises(WorkflowError, match="undeclared"):
            app.validate()

    def test_publishing_into_external_stream_rejected(self):
        app = Application("t")
        app.add_stream("S1", external=True)
        app.add_mapper("M1", EchoMapper, subscribes=["S1"],
                       publishes=["S1"])
        with pytest.raises(WorkflowError, match="input-only"):
            app.validate()

    def test_orphan_internal_stream_rejected(self):
        app = Application("t")
        app.add_stream("S1", external=True)
        app.add_stream("S2")  # nobody publishes S2
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        with pytest.raises(WorkflowError, match="no publisher"):
            app.validate()

    def test_mark_output_requires_known_stream(self):
        app = minimal_app()
        app.mark_output("S2")
        assert app.output_sids == ["S2"]
        with pytest.raises(WorkflowError):
            app.mark_output("S77")
