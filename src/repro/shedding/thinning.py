"""Probabilistic thinning with inverse-probability-weighted estimates.

An updater whose state is an associative accumulator (counts, sums —
anything where ``update`` folds events commutatively) can *declare
thinnability*: under overload the engine may skip a fraction of its
update applications, and the kept events are applied with weight
``1/p_keep`` so the expected slate value equals the exact one
(Horvitz-Thompson estimation).

Two sampling modes, both unbiased and both seeded:

* ``"stratified"`` (default) — systematic sampling with a seeded
  random phase: each key carries an accumulator that gains ``p_keep``
  per arrival and keeps an event each time it crosses 1. Over the
  uniform random phase the estimate is unbiased, and — the property
  the bench leans on — the pre-weight error is **deterministically
  bounded** by one event, so a key that saw ``n`` thinned arrivals at
  rate ``p`` ends within ``1/p`` of its exact count: relative error
  at most ``1 / (p · n)``. Hot keys (large ``n``) get provably tiny
  error, which is exactly where thinning engages.
* ``"bernoulli"`` — independent coin flips per arrival. Same
  expectation, but the error is stochastic (variance ``n(1-p)/p``),
  so only the *mean over seeds* converges; any single run can sit
  several standard deviations out. Kept for the unbiasedness property
  tests and as the textbook Horvitz-Thompson baseline.

The contract has two halves:

* **Declaration** — an :class:`~repro.core.operators.Updater` subclass
  sets ``thinnable = True`` (or passes ``{"thinnable": True}`` config)
  and implements ``update_weighted(ctx, event, slate, weight)``.
  :class:`ThinnableCounter` is the canonical implementation.
* **Decision** — :class:`Thinner` draws keep/skip decisions from one
  seeded RNG according to a :class:`ThinningPolicy` of per-key-class
  keep rates. The engine consumes decisions in discrete-event order,
  so a seeded overloaded run replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.event import Event, Key
from repro.core.operators import Context, Updater
from repro.core.slate import Slate
from repro.errors import ConfigurationError

#: The key class used when no classifier is configured (or the
#: classifier returns a class with no configured rate).
DEFAULT_CLASS = "default"


@dataclass(frozen=True)
class ThinningPolicy:
    """Per-key-class keep probabilities for thinned update application.

    Keys are mapped to classes by ``classifier`` (default: every key is
    ``"default"``); each class keeps events with its configured
    probability. A rate of 1.0 disables thinning for that class — hot
    key classes typically get low keep rates (their estimates have many
    samples) while rare-key classes keep 1.0.

    Attributes:
        keep_rates: Mapping class name -> keep probability in (0, 1].
        classifier: Optional ``key -> class name`` function. ``None``
            classifies every key as :data:`DEFAULT_CLASS`.
        mode: ``"stratified"`` (bounded error, default) or
            ``"bernoulli"`` (independent draws); see the module
            docstring for the trade-off.
    """

    keep_rates: Dict[str, float] = field(
        default_factory=lambda: {DEFAULT_CLASS: 0.1})
    classifier: Optional[Callable[[Key], str]] = None
    mode: str = "stratified"

    def __post_init__(self) -> None:
        if not self.keep_rates:
            raise ConfigurationError("ThinningPolicy needs >= 1 keep rate")
        for cls, rate in self.keep_rates.items():
            if not 0.0 < rate <= 1.0:
                raise ConfigurationError(
                    f"keep rate for class {cls!r} must be in (0, 1], "
                    f"got {rate!r}")
        if self.mode not in ("stratified", "bernoulli"):
            raise ConfigurationError(
                f"mode must be 'stratified' or 'bernoulli', "
                f"got {self.mode!r}")

    def keep_rate(self, key: Key) -> float:
        """The keep probability for one key (1.0 for unknown classes)."""
        if self.classifier is None:
            return self.keep_rates.get(DEFAULT_CLASS, 1.0)
        cls = self.classifier(key)
        rate = self.keep_rates.get(cls)
        if rate is None:
            rate = self.keep_rates.get(DEFAULT_CLASS, 1.0)
        return rate


class Thinner:
    """Seeded keep/skip decision engine (one per runtime).

    Decisions draw from a private ``random.Random(seed)``; the engines
    consume them in deterministic discrete-event (or lock-serialized)
    order, so the same seed over the same workload replays the exact
    same keep/skip sequence — the replay-exactness half of the
    overload-control contract.
    """

    __slots__ = ("policy", "decisions", "kept", "skipped", "_rng",
                 "_phase")

    def __init__(self, policy: ThinningPolicy, seed: int = 0) -> None:
        self.policy = policy
        self.decisions = 0
        self.kept = 0
        self.skipped = 0
        self._rng = random.Random(seed)
        #: Stratified mode: per-key sampling accumulator, seeded with a
        #: random phase in [0, 1) on the key's first thinned arrival.
        self._phase: Dict[Key, float] = {}

    def decide(self, key: Key) -> Tuple[bool, float]:
        """One keep/skip decision for ``key``.

        Returns:
            ``(keep, weight)``: kept events apply with the
            inverse-probability weight ``1 / p_keep`` (1.0 when the
            class's rate is 1.0 — no RNG draw is consumed then, so
            fully-kept classes cost nothing and perturb nothing).
        """
        rate = self.policy.keep_rate(key)
        if rate >= 1.0:
            return True, 1.0
        self.decisions += 1
        if self.policy.mode == "stratified":
            acc = self._phase.get(key)
            if acc is None:
                acc = self._rng.random()
            acc += rate
            if acc >= 1.0:
                self._phase[key] = acc - 1.0
                self.kept += 1
                return True, 1.0 / rate
            self._phase[key] = acc
            self.skipped += 1
            return False, 0.0
        if self._rng.random() < rate:
            self.kept += 1
            return True, 1.0 / rate
        self.skipped += 1
        return False, 0.0


class ThinnableCounter(Updater):
    """The canonical thinnable updater: an IPW-weighted per-key counter.

    Under normal load every event adds 1.0 to ``count`` — identical to
    the plain counting updater, and identical to what the reference
    executor computes. Under thinning, kept events add their weight
    ``1/p``, so ``E[count]`` still equals the exact count (unbiased);
    the ground-truth error is measured by
    :func:`repro.shedding.measure.measure_counter_error`.
    """

    thinnable = True

    def init_slate(self, key: Key) -> Dict[str, Any]:
        return {"count": 0.0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        self.update_weighted(ctx, event, slate, 1.0)

    def update_weighted(self, ctx: Context, event: Event, slate: Slate,
                        weight: float) -> None:
        slate["count"] += weight
