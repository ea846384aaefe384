"""Signatures and quorum certificates.

Messages from a Byzantine domain must be certified by at least ``2f + 1``
nodes of that domain (§4): the sending primary assembles a *quorum
certificate* over the message digest.  Crash-only domains certify messages
with the primary's signature alone.  A threshold-signature style aggregate is
provided as an alternative compact representation (§5 mentions threshold
signatures can replace 2f + 1 individual signatures).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.crypto.digests import digest
from repro.crypto.keys import KeyStore
from repro.errors import CertificateError, SignatureError

__all__ = ["SignedPayload", "QuorumCertificate", "ThresholdSignature", "Signer"]


@dataclass(frozen=True)
class SignedPayload:
    """A payload digest signed by a single principal (⟨m⟩σr in the paper)."""

    signer: str
    payload_digest: bytes
    signature: bytes

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.signer, self.payload_digest, self.signature)


@dataclass(frozen=True)
class QuorumCertificate:
    """A set of signatures over the same payload digest.

    ``required`` is the quorum size the certificate must reach to be valid
    (``2f + 1`` for Byzantine domains, ``1`` for crash-only domains whose
    primary certifies alone).
    """

    payload_digest: bytes
    required: int
    signatures: Tuple[SignedPayload, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.required < 1:
            raise CertificateError("a certificate requires at least one signature")
        signers = [entry.signer for entry in self.signatures]
        if len(signers) != len(set(signers)):
            raise CertificateError("duplicate signer in certificate")
        for entry in self.signatures:
            if entry.payload_digest != self.payload_digest:
                raise CertificateError("certificate mixes different payload digests")

    @property
    def signers(self) -> Tuple[str, ...]:
        return tuple(entry.signer for entry in self.signatures)

    @property
    def is_complete(self) -> bool:
        return len(self.signatures) >= self.required

    def with_signature(self, entry: SignedPayload) -> "QuorumCertificate":
        """Return a new certificate extended with ``entry``."""
        if entry.payload_digest != self.payload_digest:
            raise CertificateError("signature covers a different payload")
        if entry.signer in self.signers:
            return self
        return QuorumCertificate(
            payload_digest=self.payload_digest,
            required=self.required,
            signatures=self.signatures + (entry,),
        )

    def verify(self, keystore: KeyStore, allowed_signers: Optional[Iterable[str]] = None) -> bool:
        """Check completeness and validity of every signature.

        ``allowed_signers`` restricts who may contribute (the nodes of the
        certifying domain); signatures from other principals invalidate the
        certificate because they could inflate the count.
        """
        if not self.is_complete:
            return False
        allowed = set(allowed_signers) if allowed_signers is not None else None
        for entry in self.signatures:
            if allowed is not None and entry.signer not in allowed:
                return False
            if not entry.verify(keystore):
                return False
        return True


@dataclass(frozen=True)
class ThresholdSignature:
    """A compact stand-in for a (t, n) threshold signature.

    The aggregate is a hash over the sorted participant signatures; it can be
    recomputed (and therefore checked) by any party holding the same key
    store.  This keeps the single-value-on-the-wire property of threshold
    schemes without implementing pairing-based cryptography.
    """

    payload_digest: bytes
    threshold: int
    participants: Tuple[str, ...]
    aggregate: bytes

    @classmethod
    def aggregate_from(
        cls,
        keystore: KeyStore,
        payload_digest: bytes,
        signers: Iterable[str],
        threshold: int,
    ) -> "ThresholdSignature":
        signer_list = tuple(sorted(set(signers)))
        if len(signer_list) < threshold:
            raise CertificateError(
                f"need {threshold} signers, got {len(signer_list)}"
            )
        hasher = hashlib.sha256()
        hasher.update(payload_digest)
        for signer in signer_list:
            hasher.update(keystore.sign(signer, payload_digest))
        return cls(
            payload_digest=payload_digest,
            threshold=threshold,
            participants=signer_list,
            aggregate=hasher.digest(),
        )

    def verify(self, keystore: KeyStore) -> bool:
        if len(self.participants) < self.threshold:
            return False
        hasher = hashlib.sha256()
        hasher.update(self.payload_digest)
        for signer in self.participants:
            hasher.update(keystore.sign(signer, self.payload_digest))
        return hasher.digest() == self.aggregate


class Signer:
    """Helper bound to one principal for signing and certificate assembly."""

    def __init__(self, keystore: KeyStore, owner: str) -> None:
        self._keystore = keystore
        self._owner = owner
        keystore.register(owner)

    @property
    def owner(self) -> str:
        return self._owner

    def certify(
        self,
        payload_digest: bytes,
        contributions: Mapping[str, bytes],
        required: int,
    ) -> QuorumCertificate:
        """Assemble a quorum certificate from per-node signatures.

        ``contributions`` maps signer name to its signature over
        ``payload_digest``.  Invalid signatures are rejected eagerly so that a
        malicious contribution cannot poison the certificate.
        """
        certificate = QuorumCertificate(payload_digest=payload_digest, required=required)
        for signer, signature in sorted(contributions.items()):
            entry = SignedPayload(
                signer=signer, payload_digest=payload_digest, signature=signature
            )
            if not entry.verify(self._keystore):
                raise SignatureError(f"invalid signature from {signer}")
            certificate = certificate.with_signature(entry)
        if not certificate.is_complete:
            raise CertificateError(
                f"only {len(certificate.signatures)} of {required} signatures collected"
            )
        return certificate
