"""Elastic scaling: autoscaler policy + crash-safe live slate migration.

ROADMAP item 3. The autoscaler watches the overload controller's
signals (worst queue fraction, p99-over-budget, dirty backlog) and
grows or shrinks the cluster at runtime; membership changes hand slates
to their new owners through the incremental, crash-safe migration
protocol in :mod:`repro.elastic.migration` instead of the legacy
flush-barrier + full-rehydration path. :mod:`repro.elastic.controller`
is what executes either kind of change on the simulated engine.
"""

from repro.elastic.autoscaler import (Autoscaler, AutoscalerConfig,
                                      AutoscalerCounters, ScaleDecision)
from repro.elastic.migration import (MIGRATION_PHASES, MIGRATION_TARGETS,
                                     MigrationConfig, MigrationCoordinator,
                                     MigrationCounters, MigrationState)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "AutoscalerCounters",
    "MIGRATION_PHASES",
    "MIGRATION_TARGETS",
    "MigrationConfig",
    "MigrationCoordinator",
    "MigrationCounters",
    "MigrationState",
    "ScaleDecision",
]
