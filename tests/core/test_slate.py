"""Slates: mapping behaviour, dirty tracking, TTL, size caps."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import slate as slate_module
from repro.core.slate import Slate, SlateKey, TTL_FOREVER, _json_size_fast
from repro.errors import SlateTooLargeError


def make_slate(**kwargs) -> Slate:
    return Slate(SlateKey("U1", "k1"), **kwargs)


class TestSlateKey:
    def test_identity_is_updater_and_key(self):
        assert SlateKey("U1", "k") == SlateKey("U1", "k")
        assert SlateKey("U1", "k") != SlateKey("U2", "k")

    def test_row_column_addressing(self):
        """Section 4.2: slate S(U,k) lives at row k, column U."""
        assert SlateKey("U1", "walmart").row_column() == ("walmart", "U1")

    def test_same_key_different_updaters_coexist(self):
        """Section 3: <U, k> determines the slate, not k alone."""
        slates = {SlateKey("U1", "k"): 1, SlateKey("U2", "k"): 2}
        assert len(slates) == 2


class TestMappingProtocol:
    def test_get_set_del(self):
        slate = make_slate(data={"a": 1})
        slate["b"] = 2
        assert slate["a"] == 1 and slate["b"] == 2
        del slate["a"]
        assert "a" not in slate and len(slate) == 1

    def test_get_with_default(self):
        slate = make_slate()
        assert slate.get("missing", 42) == 42

    def test_setdefault_inserts_once(self):
        slate = make_slate()
        assert slate.setdefault("x", 1) == 1
        assert slate.setdefault("x", 9) == 1

    def test_iteration_and_len(self):
        slate = make_slate(data={"a": 1, "b": 2})
        assert sorted(slate) == ["a", "b"]
        assert len(slate) == 2

    def test_as_dict_is_a_copy(self):
        slate = make_slate(data={"a": 1})
        snapshot = slate.as_dict()
        snapshot["a"] = 99
        assert slate["a"] == 1

    def test_replace_is_the_papers_replace_slate(self):
        slate = make_slate(data={"a": 1})
        slate.mark_clean()
        slate.replace({"count": 7})
        assert slate.as_dict() == {"count": 7}
        assert slate.dirty


class TestDirtyTracking:
    def test_fresh_slate_is_clean(self):
        assert not make_slate(data={"a": 1}).dirty

    def test_write_marks_dirty(self):
        slate = make_slate()
        slate["x"] = 1
        assert slate.dirty

    def test_setdefault_existing_does_not_dirty(self):
        slate = make_slate(data={"x": 1})
        slate.mark_clean()
        slate.setdefault("x", 2)
        assert not slate.dirty

    def test_touch_and_mark_clean_cycle(self):
        slate = make_slate()
        slate.touch(5.0)
        assert slate.dirty and slate.last_update_ts == 5.0
        slate.mark_clean()
        assert not slate.dirty


class TestTTL:
    def test_default_is_forever(self):
        slate = make_slate()
        assert slate.ttl is TTL_FOREVER
        assert not slate.expired(now=1e12)

    def test_expires_after_ttl_since_last_update(self):
        slate = make_slate(ttl=10.0, created_ts=0.0)
        assert not slate.expired(now=10.0)
        assert slate.expired(now=10.1)

    def test_update_refreshes_ttl(self):
        """Section 4.2: TTL counts since the last *write*."""
        slate = make_slate(ttl=10.0, created_ts=0.0)
        slate.touch(8.0)
        assert not slate.expired(now=15.0)
        assert slate.expired(now=18.1)


class TestSizing:
    def test_estimated_bytes_tracks_json_size(self):
        small = make_slate(data={"c": 1})
        big = make_slate(data={"c": "x" * 10_000})
        assert big.estimated_bytes() > small.estimated_bytes() + 9_000

    def test_unencodable_data_falls_back_to_repr(self):
        slate = make_slate(data={"obj": object()})
        assert slate.estimated_bytes() > 0

    def test_check_size_enforces_cap(self):
        """Section 5: keep slates to kilobytes, not megabytes."""
        slate = make_slate(data={"blob": "x" * 2_000})
        slate.check_size(max_slate_bytes=None)  # disabled: fine
        with pytest.raises(SlateTooLargeError, match="kilobytes"):
            slate.check_size(max_slate_bytes=1_000)

    def test_check_size_passes_under_cap(self):
        make_slate(data={"c": 1}).check_size(max_slate_bytes=1_000)


def compact_json_size(data) -> int:
    return len(json.dumps(data, separators=(",", ":")))


#: Keys: printable ASCII (``"`` and ``\\`` included), control and
#: non-ASCII characters, the empty string.
SIZE_KEYS = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
            max_size=6),
    st.text(max_size=4),
    st.sampled_from(["", 'q"uote', "back\\slash", "tab\tkey", "\x7f", "é"]))
SIZE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, 1e300, math.nan, math.inf,
                     -math.inf]))
SIZE_VALUES = st.one_of(
    st.integers(), st.booleans(), st.text(max_size=4), st.none(),
    SIZE_FLOATS, st.lists(st.integers() | SIZE_FLOATS, max_size=3))


class TestSizeArithmetic:
    """``_json_size_fast`` prices a slate without serializing it; it
    must equal ``json.dumps`` to the byte or decline with -1."""

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(SIZE_KEYS, SIZE_VALUES, max_size=6))
    @example({"score": math.nan})
    @example({"score": math.inf, "tweets": 2})
    def test_fast_size_is_exact_or_declines(self, data):
        """Asked twice: once with its key memo cold, once warm."""
        slow = compact_json_size(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(slate_module, "_KEY_COSTS", {}, raising=False)
            for _ in range(2):
                fast = _json_size_fast(data)
                assert fast in (-1, slow)
                if any(type(v) is float and not math.isfinite(v)
                       for v in data.values()):
                    assert fast == -1  # JSON spells them NaN / Infinity
        assert make_slate(data=data).estimated_bytes() == slow

    @pytest.mark.parametrize("data", [
        {}, {"count": 0}, {"count": -12, "n": 10**30},
        {"score": 0.1 + 0.2, "tweets": 3, "endorsements_received": 0},
        {"a": -0.0, "b": 1e16, "c": 5e-324, "d": 1e300, "e": -2.5e-7},
    ])
    def test_ints_and_finite_floats_take_the_fast_path(self, data):
        assert _json_size_fast(data) == compact_json_size(data)


class TestDedupWatermarks:
    """Per-upstream watermarks ride inside the slate blob
    (effectively-once delivery)."""

    def test_absent_origin_is_minus_one(self):
        assert make_slate().watermark("S1") == -1

    def test_advance_is_monotone_max(self):
        slate = make_slate()
        slate.advance_watermark("S1", 5)
        slate.advance_watermark("S1", 3)   # late, lower: no regression
        slate.advance_watermark("S1", 9)
        assert slate.watermark("S1") == 9
        assert slate.watermarks == {"S1": 9}

    def test_advance_dirties_and_bumps_version(self):
        slate = make_slate()
        slate.dirty = False
        before = slate.version
        slate.advance_watermark("S1", 1)
        assert slate.dirty and slate.version > before
        # A non-advance is not a mutation.
        slate.dirty = False
        before = slate.version
        slate.advance_watermark("S1", 0)
        assert not slate.dirty and slate.version == before

    def test_blob_dict_embeds_watermarks_atomically(self):
        from repro.core.slate import WATERMARK_FIELD

        slate = make_slate(data={"count": 7})
        assert slate.blob_dict() == {"count": 7}     # knob off: unchanged
        slate.advance_watermark("S1", 12)
        blob = slate.blob_dict()
        assert blob["count"] == 7
        assert blob[WATERMARK_FIELD] == {"S1": 12}
        # as_dict (the application view) never shows the reserved field.
        assert slate.as_dict() == {"count": 7}

    def test_encoded_blob_round_trips_watermarks(self):
        from repro.core.slate import WATERMARK_FIELD
        from repro.slates.codec import DEFAULT_CODEC, split_watermarks

        slate = make_slate(data={"count": 3})
        slate.advance_watermark("S1>M1", 42)
        decoded = DEFAULT_CODEC.decode(slate.encoded_with(DEFAULT_CODEC))
        fields, watermarks = split_watermarks(decoded)
        assert fields == {"count": 3}
        assert watermarks == {"S1>M1": 42}
        assert WATERMARK_FIELD not in fields

    def test_no_watermarks_keeps_blob_bytes_identical(self):
        from repro.slates.codec import DEFAULT_CODEC

        plain = make_slate(data={"count": 3})
        tracked = make_slate(data={"count": 3})
        assert (plain.encoded_with(DEFAULT_CODEC)
                == tracked.encoded_with(DEFAULT_CODEC))

    def test_set_watermarks_does_not_dirty(self):
        slate = make_slate()
        slate.dirty = False
        slate.set_watermarks({"S1": 4})
        assert not slate.dirty
        assert slate.watermark("S1") == 4
        slate.set_watermarks(None)
        assert slate.watermark("S1") == -1
