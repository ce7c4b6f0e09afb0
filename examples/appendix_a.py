#!/usr/bin/env python
"""Appendix A: the paper's own Java listings (Figures 3 and 4), ported.

``repro.apps.appendix_a`` renders ``RetailerMapper`` and ``Counter``
line for line onto the byte-level operator API of ``repro.core.binary``
(``submitter.publish(stream, key, event)``, ``replaceSlate(bytes)``).
This script runs that port through the reference executor and the
local thread runtime on generated check-ins, and checks that both count
what the Python retailer app counts for the two retailers the appendix
recognizes.

Run:  python examples/appendix_a.py
"""

from __future__ import annotations

from repro.apps import build_appendix_app, build_retailer_app
from repro.core import ReferenceExecutor, slate_bytes
from repro.muppet import LocalConfig, LocalMuppet
from repro.obs import format_table
from repro.workloads import CheckinGenerator

#: Figure 3 matches only these two venue patterns.
RETAILERS = ("Walmart", "Sam's Club")


def byte_counts(slates) -> dict:
    """Figure 4 keeps the count as the slate's decimal bytes."""
    return {key: int(slate_bytes(fields)) for key, fields in slates.items()}


def main() -> None:
    events, truth = CheckinGenerator(rate_per_s=2000, retail_fraction=0.45,
                                     seed=11).take_with_truth(5_000)
    print(f"generated {len(events)} checkins")

    # Each operator answers Appendix A's getName() with its function name.
    names = [spec.instantiate().getName()
             for spec in build_appendix_app().operators()]
    print(f"Appendix A operators: {', '.join(names)}")

    retailer = ReferenceExecutor(build_retailer_app()).run(list(events))
    expected = {name: retailer.slates_of("U1")[name]["count"]
                for name in RETAILERS}

    reference = ReferenceExecutor(build_appendix_app()).run(list(events))
    on_reference = byte_counts(
        {key: slate.as_dict()
         for key, slate in reference.slates_of("U1").items()})

    with LocalMuppet(build_appendix_app(),
                     LocalConfig(num_threads=4)) as runtime:
        runtime.ingest_many(list(events))
        assert runtime.drain(), "the thread runtime did not drain"
        on_threads = byte_counts(runtime.read_slates_of("U1"))

    rows = [[name, expected[name], on_reference.get(name),
             on_threads.get(name), truth[name]] for name in RETAILERS]
    print(format_table(["retailer", "retailer app", "Appendix A (reference)",
                        "Appendix A (threads)", "ground truth"], rows))
    assert set(on_reference) == set(on_threads) == set(RETAILERS), \
        "Figure 3 should key only Walmart and Sam's Club"
    assert on_reference == on_threads == expected, \
        "the Appendix A port diverged from the retailer app"
    print("Appendix A counts equal the retailer app's on both engines.")


if __name__ == "__main__":
    main()
