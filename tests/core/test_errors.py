"""The exception hierarchy: every library error is a ReproError."""

import inspect

import pytest

import repro.errors as errors_module
from repro.errors import (AnalysisError, ConfigurationError,
                          EngineStoppedError, QuorumError, ReproError,
                          SimulationError, SlateError, SlateTooLargeError,
                          StoreError, TimestampError, WorkerFailedError,
                          WorkflowError)


def _all_error_classes():
    return [cls for _, cls in inspect.getmembers(errors_module,
                                                 inspect.isclass)
            if issubclass(cls, Exception)]


def test_every_exported_error_derives_from_repro_error():
    classes = _all_error_classes()
    assert len(classes) >= 12
    for cls in classes:
        assert issubclass(cls, ReproError), cls


def test_catching_repro_error_catches_subclasses():
    for cls in (ConfigurationError, AnalysisError, SimulationError,
                EngineStoppedError, TimestampError, WorkerFailedError):
        with pytest.raises(ReproError):
            raise cls("boom")


def test_sub_hierarchies():
    # Configuration: workflow errors are a species of config error.
    assert issubclass(WorkflowError, ConfigurationError)
    # Slates: the size cap is a slate error.
    assert issubclass(SlateTooLargeError, SlateError)
    # Store: quorum failures are store failures.
    assert issubclass(QuorumError, StoreError)


def test_analysis_error_is_catchable_as_repro_error():
    with pytest.raises(ReproError, match="tool broke"):
        raise AnalysisError("tool broke")


def test_messages_round_trip():
    err = SlateTooLargeError("slate U1/k1 is 2048 bytes (cap 1024)")
    assert "cap 1024" in str(err)
    assert isinstance(err, SlateError)
    assert isinstance(err, ReproError)


def test_errors_do_not_catch_foreign_exceptions():
    with pytest.raises(ValueError):
        try:
            raise ValueError("not ours")
        except ReproError:  # pragma: no cover - must not catch
            pytest.fail("ReproError must not catch ValueError")
