"""Application configuration files (Section 3).

"To write a MapUpdate application, a developer writes the necessary map
and update functions, then a configuration file that includes the
workflow graph." This module is that configuration file for our system:
a JSON document naming the streams, the operator classes (as import
paths), their subscriptions/publications, and per-function config —
loadable into a validated :class:`~repro.core.application.Application`.

Example::

    {
      "name": "retailer-counts",
      "streams": [
        {"sid": "S1", "external": true},
        {"sid": "S2"}
      ],
      "operators": [
        {"name": "M1", "kind": "map",
         "class": "repro.apps.retailer_count.RetailerMapper",
         "subscribes": ["S1"], "publishes": ["S2"]},
        {"name": "U1", "kind": "update",
         "class": "repro.apps.retailer_count.CheckinCounter",
         "subscribes": ["S2"], "config": {"slate_ttl": 86400}}
      ],
      "outputs": ["S2"]
    }
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from typing import Any, Dict, Type, Union

from repro.core.application import Application
from repro.core.operators import Mapper, Operator, Updater
from repro.errors import ConfigurationError


def resolve_operator_class(dotted_path: str) -> Type[Operator]:
    """Import an operator class from ``"package.module.ClassName"``."""
    module_name, _, class_name = dotted_path.rpartition(".")
    if not module_name:
        raise ConfigurationError(
            f"operator class {dotted_path!r} must be a dotted import path"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import module {module_name!r}: {exc}"
        ) from exc
    try:
        cls = getattr(module, class_name)
    except AttributeError:
        raise ConfigurationError(
            f"module {module_name!r} has no class {class_name!r}"
        ) from None
    if not (isinstance(cls, type) and issubclass(cls, Operator)):
        raise ConfigurationError(
            f"{dotted_path!r} is not a Mapper/Updater subclass"
        )
    return cls


def application_from_config(config: Dict[str, Any]) -> Application:
    """Build and validate an application from a parsed config dict."""
    try:
        name = config["name"]
        streams = config["streams"]
        operators = config["operators"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"config must define name, streams, and operators: {exc}"
        ) from exc

    app = Application(name)
    for stream in streams:
        if "sid" not in stream:
            raise ConfigurationError(f"stream missing 'sid': {stream}")
        app.add_stream(stream["sid"],
                       external=bool(stream.get("external", False)),
                       overflow=bool(stream.get("overflow", False)),
                       description=stream.get("description", ""))

    for operator in operators:
        for field in ("name", "kind", "class", "subscribes"):
            if field not in operator:
                raise ConfigurationError(
                    f"operator missing {field!r}: {operator}"
                )
        cls = resolve_operator_class(operator["class"])
        kind = operator["kind"]
        expected = {"map": Mapper, "update": Updater}.get(kind)
        if expected is None:
            raise ConfigurationError(
                f"operator kind must be 'map' or 'update', got {kind!r}"
            )
        if not issubclass(cls, expected):
            raise ConfigurationError(
                f"operator {operator['name']!r}: {operator['class']!r} is "
                f"not a {expected.__name__} subclass"
            )
        adder = app.add_mapper if kind == "map" else app.add_updater
        adder(operator["name"], cls,
              subscribes=operator["subscribes"],
              publishes=operator.get("publishes", []),
              config=operator.get("config", {}))

    for sid in config.get("outputs", []):
        app.mark_output(sid)
    return app.validate()


def load_application(path: Union[str, Path]) -> Application:
    """Load, parse, and validate an application config file (JSON)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError(f"{path} must contain a JSON object")
    return application_from_config(config)
