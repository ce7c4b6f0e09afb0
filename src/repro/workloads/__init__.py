"""Synthetic workload generators: tweets, checkins, Zipf key skew."""

from repro.workloads.checkins import (NON_RETAIL_VENUES, RETAILER_SPELLINGS,
                                      CheckinGenerator, parse_checkin)
from repro.workloads.tweets import TOPICS, TopicBurst, TweetGenerator
from repro.workloads.traceio import read_events, write_events
from repro.workloads.zipf import ZipfSampler, zipf_key_fn

__all__ = [
    "CheckinGenerator",
    "NON_RETAIL_VENUES",
    "RETAILER_SPELLINGS",
    "TOPICS",
    "TopicBurst",
    "TweetGenerator",
    "ZipfSampler",
    "parse_checkin",
    "read_events",
    "write_events",
    "zipf_key_fn",
]
