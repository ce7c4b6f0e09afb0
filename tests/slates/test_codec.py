"""Slate codecs: JSON round-trips, compression wins, corruption errors."""

import zlib

import pytest

from repro.errors import SlateError
from repro.slates.codec import (DEFAULT_CODEC, ZLIB_LEVEL, CompressedJsonCodec,
                                JsonCodec)


class TestJsonCodec:
    def test_roundtrip(self):
        codec = JsonCodec()
        data = {"count": 7, "tags": ["a", "b"], "nested": {"x": 1.5}}
        assert codec.decode(codec.encode(data)) == data

    def test_deterministic_encoding(self):
        codec = JsonCodec()
        assert codec.encode({"b": 1, "a": 2}) == codec.encode({"a": 2,
                                                               "b": 1})

    def test_unencodable_raises(self):
        with pytest.raises(SlateError, match="JSON"):
            JsonCodec().encode({"bad": object()})

    def test_corrupt_blob_raises(self):
        with pytest.raises(SlateError):
            JsonCodec().decode(b"\xff\xfe not json")

    def test_non_dict_payload_rejected(self):
        with pytest.raises(SlateError, match="expected dict"):
            JsonCodec().decode(b"[1, 2, 3]")


class TestCompressedJsonCodec:
    def test_roundtrip(self):
        codec = CompressedJsonCodec()
        data = {"count": 3, "text": "hello world" * 10}
        assert codec.decode(codec.encode(data)) == data

    def test_compression_shrinks_repetitive_slates(self):
        """The paper compresses slates before storing (Section 4.2)."""
        data = {"history": ["same-interest-tag"] * 200}
        plain = JsonCodec().encode(data)
        compressed = CompressedJsonCodec().encode(data)
        assert len(compressed) < len(plain) / 5

    def test_corrupt_compressed_blob_raises(self):
        with pytest.raises(SlateError, match="compressed"):
            CompressedJsonCodec().decode(b"not zlib data")

    def test_level_property(self):
        """Slates are compressed at ZLIB_LEVEL, zlib's default of 6."""
        data = {"history": ["same-interest-tag"] * 200}
        assert ZLIB_LEVEL == 6
        assert CompressedJsonCodec().encode(data) == zlib.compress(
            JsonCodec().encode(data), ZLIB_LEVEL)

    def test_levels_agree_on_decode(self):
        """A blob written at any level decodes (zlib self-frames)."""
        data = {"history": ["same-interest-tag"] * 200}
        raw = JsonCodec().encode(data)
        for level in (1, 6, 9):
            blob = zlib.compress(raw, level)
            assert CompressedJsonCodec().decode(blob) == data

    def test_default_codec_is_compressed(self):
        assert DEFAULT_CODEC.name == "json+zlib"
