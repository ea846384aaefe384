"""Simulated public-key infrastructure.

The paper assumes standard digital signatures and a PKI: every node holds a
key pair, and every node knows the public keys of the nodes it talks to (at
least those on its path to the root).  For the reproduction we do not need the
security of real asymmetric cryptography — only its *interface* and *cost
model* — so a key pair is a random secret from which a deterministic
"public" verification key is derived, and signatures are HMAC-SHA256 tags over
the message digest.  Verification recomputes the tag from the public key
registry, which means a signature produced by one key never verifies under a
different identity, preserving the non-forgeability the protocols rely on.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import CryptoError

__all__ = ["KeyPair", "KeyStore"]


def _derive_public(secret: bytes) -> bytes:
    """Derive the public half of a key pair from its secret."""
    return hashlib.sha256(b"saguaro-public:" + secret).digest()


@dataclass(frozen=True)
class KeyPair:
    """A signing key pair owned by one principal (node or client)."""

    owner: str
    secret: bytes
    public: bytes = field(default=b"")

    def __post_init__(self) -> None:
        if not self.owner:
            raise CryptoError("key pair owner must be a non-empty string")
        if len(self.secret) < 16:
            raise CryptoError("key pair secret must be at least 16 bytes")
        if not self.public:
            object.__setattr__(self, "public", _derive_public(self.secret))

    @classmethod
    def generate(cls, owner: str, seed: Optional[int] = None) -> "KeyPair":
        """Generate a key pair.

        When ``seed`` is given the secret is derived deterministically, which
        keeps simulations reproducible; otherwise a random secret is used.
        """
        if seed is None:
            secret = secrets.token_bytes(32)
        else:
            secret = hashlib.sha256(f"saguaro-seed:{owner}:{seed}".encode()).digest()
        return cls(owner=owner, secret=secret)

    def sign(self, payload: bytes) -> bytes:
        """Produce a signature over ``payload``."""
        return hmac.new(self.secret, payload, hashlib.sha256).digest()


class KeyStore:
    """Registry mapping principal names to key pairs (the simulated PKI).

    The key store plays the role of the certificate authority: it generates
    keys for every principal of a deployment and lets verifiers look up the
    secret needed to re-compute (and therefore check) a signature.  Real
    deployments would only distribute public keys; since our signatures are
    HMACs, the store keeps the full pair but exposes verification through
    :meth:`verify`, so calling code never touches secrets directly.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._keys: Dict[str, KeyPair] = {}

    def __contains__(self, owner: str) -> bool:
        return owner in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def register(self, owner: str) -> KeyPair:
        """Create (or return the existing) key pair for ``owner``."""
        existing = self._keys.get(owner)
        if existing is not None:
            return existing
        seed = None if self._seed is None else self._seed
        pair = KeyPair.generate(owner, seed=seed)
        self._keys[owner] = pair
        return pair

    def register_all(self, owners: Iterable[str]) -> None:
        """Register every owner in ``owners``."""
        for owner in owners:
            self.register(owner)

    def key_of(self, owner: str) -> KeyPair:
        """Key pair of ``owner``; raises :class:`CryptoError` if unknown."""
        try:
            return self._keys[owner]
        except KeyError as exc:
            raise CryptoError(f"unknown principal: {owner}") from exc

    def sign(self, owner: str, payload: bytes) -> bytes:
        """Sign ``payload`` with ``owner``'s key."""
        return self.key_of(owner).sign(payload)

    def verify(self, owner: str, payload: bytes, signature: bytes) -> bool:
        """Check that ``signature`` is ``owner``'s signature over ``payload``."""
        if owner not in self._keys:
            return False
        expected = self._keys[owner].sign(payload)
        return hmac.compare_digest(expected, signature)
