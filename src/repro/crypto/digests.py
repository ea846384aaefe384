"""Message digests.

The paper writes Δ(m) for the digest of a message m; every protocol message
carries either the request or its digest so that later phases can refer to the
request without re-transmitting it.  We provide a canonical, deterministic
encoding for the handful of Python types that appear in protocol messages so
that two nodes always compute the same digest for the same logical content.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping, Sequence

__all__ = ["canonical_encode", "digest", "digest_hex"]

_SEPARATOR = b"\x1f"


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into a canonical byte string.

    Supports ``None``, booleans, integers, floats, strings, bytes, sequences
    and mappings (sorted by encoded key), plus any object exposing a
    ``canonical_bytes()`` method.  The encoding is prefix-typed so that e.g.
    the string ``"1"`` and the integer ``1`` never collide.
    """
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode()
    if isinstance(value, float):
        return b"F" + repr(value).encode()
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"Y" + value
    if hasattr(value, "canonical_bytes"):
        return b"O" + value.canonical_bytes()
    if isinstance(value, Mapping):
        items = sorted(
            (canonical_encode(k), canonical_encode(v)) for k, v in value.items()
        )
        body = _SEPARATOR.join(k + b"=" + v for k, v in items)
        return b"M{" + body + b"}"
    if isinstance(value, (list, tuple, Sequence)):
        body = _SEPARATOR.join(canonical_encode(item) for item in value)
        return b"L[" + body + b"]"
    if hasattr(value, "name") and not isinstance(value, type):
        # Enums and identifier dataclasses expose a stable ``name``.
        return b"E" + str(value).encode("utf-8")
    return b"R" + repr(value).encode("utf-8")


def digest(*values: Any) -> bytes:
    """SHA-256 digest over the canonical encoding of ``values``."""
    hasher = hashlib.sha256()
    for value in values:
        if type(value) is bytes:
            # ``canonical_encode``'s bytes form, without building it: chain
            # hashes digest two bytes values, on every append and every check.
            hasher.update(b"Y")
            hasher.update(value)
        else:
            hasher.update(canonical_encode(value))
        hasher.update(_SEPARATOR)
    return hasher.digest()


def digest_hex(*values: Any) -> str:
    """Hexadecimal form of :func:`digest`, convenient for logs and tests."""
    return digest(*values).hex()
