"""The paper's applications, as reusable library builders.

Each module assembles one of the workflows from Sections 2-5: retailer
checkin counting (Examples 1/4, Figures 1(b), 3, 4), hot-topic detection
(Examples 2/5, Figure 1(c)), user reputation (Example 3), top-ten URLs
(Section 2), and hotspot key splitting (Example 6).
"""

from repro.apps.hot_topics import (HotTopicDetector, MinuteCounter,
                                   TopicMapper, build_hot_topics_app,
                                   minute_of_day, topic_minute_key)
from repro.apps.appendix_a import build_appendix_app
from repro.apps.profiles import (ProfileMapper, UserProfileUpdater,
                                 VenueProfileUpdater, build_profiles_app,
                                 estimate_unique_visitors, peak_hour)
from repro.apps.key_splitting import (PartialCounter,
                                      SplittingRetailerMapper, TotalCounter,
                                      base_key, build_split_app, split_key)
from repro.apps.reputation import (ReputationMapper, ReputationUpdater,
                                   build_reputation_app)
from repro.apps.retailer_count import (RETAILER_PATTERNS, CheckinCounter,
                                       RetailerMapper, build_retailer_app,
                                       match_retailer)
from repro.apps.top_urls import (LEADERBOARD_KEY, TopUrls, UrlCounter,
                                 UrlMapper, build_top_urls_app)

__all__ = [
    "CheckinCounter",
    "ProfileMapper",
    "UserProfileUpdater",
    "VenueProfileUpdater",
    "build_appendix_app",
    "build_profiles_app",
    "estimate_unique_visitors",
    "peak_hour",
    "HotTopicDetector",
    "LEADERBOARD_KEY",
    "MinuteCounter",
    "PartialCounter",
    "RETAILER_PATTERNS",
    "ReputationMapper",
    "ReputationUpdater",
    "RetailerMapper",
    "SplittingRetailerMapper",
    "TopUrls",
    "TopicMapper",
    "TotalCounter",
    "UrlCounter",
    "UrlMapper",
    "base_key",
    "build_hot_topics_app",
    "build_reputation_app",
    "build_retailer_app",
    "build_split_app",
    "build_top_urls_app",
    "match_retailer",
    "minute_of_day",
    "split_key",
    "topic_minute_key",
]
