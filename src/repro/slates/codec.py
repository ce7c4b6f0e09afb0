"""Slate serialization codecs (Section 4.2).

"Our applications often use JSON to encode slates for language independence
and flexibility, so Muppet compresses each slate before storing it in the
key-value store." The default codec is therefore JSON + zlib; a plain JSON
codec exists for ablation benches that measure what the compression buys.

Under ``delivery_semantics="effectively-once"`` the blob additionally
carries the slate's per-upstream dedup watermarks, embedded under the
reserved :data:`WATERMARK_FIELD` key so state and watermarks persist
*atomically* through the one encode/write — the property the recovery
exactness argument rests on. :func:`split_watermarks` is the decode-side
inverse. Slates that never tracked a watermark encode exactly as before
(no reserved key), so blobs are byte-identical with the knob off.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Optional, Protocol, Tuple

from repro.core.slate import WATERMARK_FIELD
from repro.errors import SlateError


def split_watermarks(
    data: Dict[str, Any],
) -> Tuple[Dict[str, Any], Optional[Dict[str, int]]]:
    """Separate a decoded blob dict into (application fields, watermarks).

    Mutates ``data`` by popping the reserved key; returns ``None`` for
    the watermarks when the blob was written without any (the common
    case for every delivery mode except effectively-once).
    """
    watermarks = data.pop(WATERMARK_FIELD, None)
    if watermarks is None:
        return data, None
    return data, {str(origin): int(seq) for origin, seq in watermarks.items()}


class SlateCodec(Protocol):
    """Encodes slate field dicts to bytes for the key-value store."""

    name: str

    def encode(self, data: Dict[str, Any]) -> bytes:
        """Serialize slate contents."""
        ...

    def decode(self, blob: bytes) -> Dict[str, Any]:
        """Deserialize slate contents."""
        ...


#: What ``json.dumps(data, separators=(",", ":"), sort_keys=True)`` and
#: ``json.loads`` would build on every call; encoders and decoders keep
#: no state between calls.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_DECODER = json.JSONDecoder()


class JsonCodec:
    """Plain JSON (UTF-8), no compression — ablation baseline."""

    name = "json"

    def encode(self, data: Dict[str, Any]) -> bytes:
        try:
            return _ENCODER.encode(data).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SlateError(f"slate not JSON-encodable: {exc}") from exc

    def decode(self, blob: bytes) -> Dict[str, Any]:
        try:
            data = _DECODER.decode(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise SlateError(f"corrupt slate blob: {exc}") from exc
        if not isinstance(data, dict):
            raise SlateError(
                f"slate blob decoded to {type(data).__name__}, expected dict"
            )
        return data


#: Shared by every CompressedJsonCodec — JsonCodec is stateless, so one
#: instance serves all compression levels.
_JSON = JsonCodec()


class CompressedJsonCodec:
    """JSON + zlib — the paper's production encoding.

    Args:
        level: zlib compression level (1 fast … 9 small; 6 default).
    """

    name = "json+zlib"

    def __init__(self, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise SlateError(f"zlib level must be 1..9, got {level}")
        self._level = level

    @property
    def level(self) -> int:
        """The zlib compression level this codec encodes at."""
        return self._level

    def encode(self, data: Dict[str, Any]) -> bytes:
        return zlib.compress(_JSON.encode(data), self._level)

    def decode(self, blob: bytes) -> Dict[str, Any]:
        try:
            raw = zlib.decompress(blob)
        except zlib.error as exc:
            raise SlateError(f"corrupt compressed slate: {exc}") from exc
        return _JSON.decode(raw)


#: The production default, matching the paper.
DEFAULT_CODEC = CompressedJsonCodec()
