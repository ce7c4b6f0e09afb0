"""Declarative experiment-campaign specs.

A campaign is the paper's §5 evaluation shape made executable: a named
parameter grid (machines × rate × delivery semantics × fault schedule ×
...), a scenario callable that runs one grid cell and returns a flat
metrics dict, and an artifact contract (one committed JSON file plus a
rendered markdown table per campaign). Specs are plain data — a Python
:class:`CampaignSpec` — so the runner, the CI campaign job, and the
docs all read the same source of truth.

Scenario, verify, and summarize hooks are referenced as importable
``"module:callable"`` strings rather than function objects: that keeps a
spec serializable and lets worker *processes* import the
scenario themselves instead of pickling closures.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Union

from repro.errors import ConfigurationError

#: Grid values must stay JSON-scalar so cell hashes are canonical.
GridValue = Union[str, int, float, bool]
Grid = Mapping[str, Sequence[GridValue]]

#: One grid cell's scenario entry point: ``(params, seed) -> metrics``.
CellFn = Callable[[Mapping[str, Any], int], Dict[str, Any]]
#: Post-campaign structural assertions: ``(rows) -> failure messages``.
VerifyFn = Callable[[List[Dict[str, Any]]], List[str]]
#: Extra markdown lines derived from the rows (curves, headlines).
SummarizeFn = Callable[[List[Dict[str, Any]]], List[str]]

_SCALARS = (str, int, float, bool)


def resolve_ref(ref: str) -> Callable[..., Any]:
    """Import a ``"module:callable"`` reference."""
    module_name, sep, attr = ref.partition(":")
    if not sep or not module_name or not attr:
        raise ConfigurationError(
            f"hook reference {ref!r} is not of the form 'module:callable'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(f"cannot import {module_name!r}: {exc}") from exc
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        msg = f"{module_name!r} has no attribute {attr!r}"
        raise ConfigurationError(msg) from exc
    if not callable(fn):
        raise ConfigurationError(f"{ref!r} does not name a callable")
    return fn  # type: ignore[no-any-return]


def _check_grid(label: str, grid: Grid) -> None:
    if not grid:
        raise ConfigurationError(f"{label} must name at least one parameter")
    for param, values in grid.items():
        if not isinstance(param, str) or not param:
            raise ConfigurationError(f"{label} parameter {param!r} must be a name")
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ConfigurationError(
                f"{label} parameter {param!r} needs a sequence of values"
            )
        if len(values) == 0:
            raise ConfigurationError(f"{label} parameter {param!r} has no values")
        for value in values:
            if not isinstance(value, _SCALARS):
                raise ConfigurationError(
                    f"{label} parameter {param!r} has non-scalar value {value!r}"
                )


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign: a grid, a scenario, and an artifact contract.

    Attributes:
        name: Campaign (and artifact file) name.
        description: One line for ``campaign list`` and the markdown header.
        scenario: ``"module:callable"`` run once per cell as
            ``scenario(params, seed)``; must return a flat JSON-able
            metrics dict.
        grid: Parameter name → value list; the campaign runs the full
            cross product (duplicate cells are dropped).
        fixed: Extra constant parameters merged into every cell's params
            (not part of the cell hash — changing them changes the
            *spec* hash instead).
        seed: Base seed XOR-folded into each cell's hash-derived seed.
        volatile_metrics: Metric names that are machine-dependent (wall
            clock, CPU) and therefore excluded from ``campaign check``
            byte-for-byte comparison.
        smoke_grid: Reduced grid for CI smoke runs. Keys must equal the
            full grid's and values must be subsets, so every smoke cell
            exists in the committed full-grid artifact.
        artifact: Committed JSON path relative to the repo root
            (default ``campaigns/results/<name>.json``).
        verify: Optional ``"module:callable"`` assertion hook over the
            completed rows; returns failure messages (empty = pass).
        summarize: Optional ``"module:callable"`` hook returning extra
            markdown lines (derived curves, headline numbers).
    """

    name: str
    description: str
    scenario: str
    grid: Grid
    fixed: Mapping[str, GridValue] = field(default_factory=dict)
    seed: int = 0
    volatile_metrics: Tuple[str, ...] = ()
    smoke_grid: Union[Grid, None] = None
    artifact: Union[str, None] = None
    verify: Union[str, None] = None
    summarize: Union[str, None] = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ConfigurationError(f"bad campaign name {self.name!r}")
        _check_grid(f"campaign {self.name!r} grid", self.grid)
        for key, value in self.fixed.items():
            if not isinstance(value, _SCALARS):
                raise ConfigurationError(
                    f"campaign {self.name!r} fixed param {key!r} has "
                    f"non-scalar value {value!r}"
                )
            if key in self.grid:
                raise ConfigurationError(
                    f"campaign {self.name!r} param {key!r} is both fixed "
                    "and swept"
                )
        if self.smoke_grid is not None:
            _check_grid(f"campaign {self.name!r} smoke_grid", self.smoke_grid)
            if set(self.smoke_grid) != set(self.grid):
                raise ConfigurationError(
                    f"campaign {self.name!r} smoke_grid must sweep the "
                    "same parameters as the full grid"
                )
            for param, values in self.smoke_grid.items():
                extra = [v for v in values if v not in self.grid[param]]
                if extra:
                    raise ConfigurationError(
                        f"campaign {self.name!r} smoke_grid adds values "
                        f"{extra!r} for {param!r} outside the full grid"
                    )

    def grid_for(self, smoke: bool) -> Grid:
        """The grid a run sweeps; smoke falls back to the full grid."""
        if smoke and self.smoke_grid is not None:
            return self.smoke_grid
        return self.grid

    def committed_path(self, root: Path) -> Path:
        """Where the committed artifact lives, relative to ``root``."""
        if self.artifact is not None:
            return root / self.artifact
        return root / "campaigns" / "results" / f"{self.name}.json"

    def markdown_path(self, root: Path) -> Path:
        """Where the rendered markdown table lives."""
        return root / "campaigns" / "results" / f"{self.name}.md"
