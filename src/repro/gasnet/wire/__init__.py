"""``repro.gasnet.wire`` — the serialization subsystem.

Every active message crosses the conduit as a struct-packed
:class:`~repro.gasnet.wire.frame.Frame`: a fixed binary header (no
pickle for the envelope) followed by the handler's name, tag-based
stream encoding for args and payloads — one encoder for every value,
dicts included — out-of-band buffers for bulk data, and pickle
protocol 5 (with out-of-band buffer callbacks) only as the fallback for
genuinely dynamic values.  See docs/API.md, "Wire format and
serialization".
"""

from repro.gasnet.wire.codecs import (  # noqa: F401
    EncodedPayload,
    UnencodableError,
    preencode,
)
from repro.gasnet.wire.frame import (  # noqa: F401
    CODEC_NONE,
    CODEC_OBJ,
    HEADER,
    WIRE_VERSION,
    Frame,
    encode_am,
)

__all__ = [
    "EncodedPayload", "UnencodableError", "preencode",
    "CODEC_NONE", "CODEC_OBJ",
    "HEADER", "WIRE_VERSION", "Frame", "encode_am",
]
