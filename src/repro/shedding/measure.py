"""Ground-truth error measurement against the reference executor.

Section 3's reference executor defines what every counter *should* be;
an overloaded run that shed load (thinned, dropped, diverted) deviates
from it. This module quantifies the deviation: per-key relative error
of a numeric slate field versus the reference ground truth, plus the
data-loss accounting that distinguishes the policies — drop loses
events outright, thinning loses none (it degrades precision, bounded
and unbiased, instead of completeness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.errors import AnalysisError

if TYPE_CHECKING:  # import cycle: reference → muppet → shedding → here
    from repro.core.reference import ReferenceResult


@dataclass
class CounterErrorReport:
    """Per-key counter error of one engine run versus the reference.

    Relative error for key ``k`` is ``|measured - exact| / exact``
    (exact-zero keys are compared absolutely: any nonzero measurement
    counts as error 1.0). ``missing_keys`` are reference keys the run
    never materialized — total loss for those keys, reported separately
    so a policy that drops whole keys cannot hide behind a low mean.
    """

    updater: str
    fld: str
    compared: int = 0
    missing_keys: int = 0
    max_rel_error: float = 0.0
    mean_rel_error: float = 0.0
    #: Key with the worst error (diagnostics; "" when none compared).
    worst_key: str = ""
    per_key: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Summary dict (no per-key detail) for report/bench tables."""
        return {
            "updater": self.updater,
            "field": self.fld,
            "compared": self.compared,
            "missing_keys": self.missing_keys,
            "max_rel_error": self.max_rel_error,
            "mean_rel_error": self.mean_rel_error,
            "worst_key": self.worst_key,
        }


def _numeric(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AnalysisError(
            f"counter error needs a numeric field; {where} holds "
            f"{value!r}")
    return float(value)


def counter_error(measured: Mapping[str, Mapping[str, Any]],
                  exact: Mapping[str, float],
                  updater: str, fld: str) -> CounterErrorReport:
    """Compare ``measured`` slates against exact per-key values.

    Args:
        measured: ``{key: slate fields}`` as the engines return from
            ``slates_of`` / ``read_slates_of``.
        exact: ``{key: exact value}`` ground truth (see
            :meth:`repro.core.reference.ReferenceResult.numeric_slates`).
        updater: Label for the report.
        fld: Slate field name being compared.
    """
    report = CounterErrorReport(updater=updater, fld=fld)
    total = 0.0
    for key in sorted(exact):
        truth = exact[key]
        slate = measured.get(key)
        if slate is None or fld not in slate:
            report.missing_keys += 1
            continue
        got = _numeric(slate[fld], f"slate ({updater}, {key!r}).{fld}")
        if truth == 0.0:
            rel = 0.0 if got == 0.0 else 1.0
        else:
            rel = abs(got - truth) / abs(truth)
        report.per_key[key] = rel
        report.compared += 1
        total += rel
        if rel > report.max_rel_error:
            report.max_rel_error = rel
            report.worst_key = key
    if report.compared:
        report.mean_rel_error = total / report.compared
    return report


def measure_counter_error(measured: Mapping[str, Mapping[str, Any]],
                          reference: ReferenceResult,
                          updater: str, fld: str) -> CounterErrorReport:
    """Counter error of an engine's final slates versus a reference run.

    The reference executor never sheds, so its slates are the Section 3
    exact values; any relative error here is the price of the overload
    policy (zero under no overload, bounded and unbiased under
    thinning, unbounded under drop).
    """
    return counter_error(measured,
                         reference.numeric_slates(updater, fld),
                         updater, fld)


def loss_summary(report: Any) -> Dict[str, Optional[float]]:
    """Per-policy data-loss accounting from one ``SimReport``.

    ``lost`` events left the system without being processed (dropped on
    overflow or to failures); ``degraded`` were served on the overflow
    stream; ``thinned`` were sampled out with unbiased reconstruction
    (precision cost, not data loss); ``throttled`` were deferred at the
    source.
    """
    counters = report.counters
    return {
        "published": counters.published,
        "lost": counters.lost_total(),
        "degraded": counters.diverted_overflow_stream,
        "thinned": getattr(counters, "thinned", 0),
        "throttled": counters.throttled,
        "throttle_paused_s": report.throttle_paused_s,
    }
