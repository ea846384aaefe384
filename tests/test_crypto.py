"""Unit and property tests for the simulated PKI, digests, and certificates."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.certificates import (
    QuorumCertificate,
    SignedPayload,
    Signer,
    ThresholdSignature,
)
from repro.crypto.digests import canonical_encode, digest, digest_hex
from repro.crypto.keys import KeyPair, KeyStore
from repro.errors import CertificateError, CryptoError, SignatureError


class TestKeys:
    def test_deterministic_generation_with_seed(self):
        a = KeyPair.generate("D11/n0", seed=7)
        b = KeyPair.generate("D11/n0", seed=7)
        assert a.secret == b.secret and a.public == b.public

    def test_different_owners_get_different_keys(self):
        assert KeyPair.generate("a", seed=7).secret != KeyPair.generate("b", seed=7).secret

    def test_empty_owner_rejected(self):
        with pytest.raises(CryptoError):
            KeyPair(owner="", secret=b"x" * 32)

    def test_short_secret_rejected(self):
        with pytest.raises(CryptoError):
            KeyPair(owner="n", secret=b"short")

    def test_keystore_sign_verify_roundtrip(self):
        store = KeyStore(seed=3)
        store.register("node-a")
        signature = store.sign("node-a", b"payload")
        assert store.verify("node-a", b"payload", signature)

    def test_keystore_rejects_wrong_signer(self):
        store = KeyStore(seed=3)
        store.register("node-a")
        store.register("node-b")
        signature = store.sign("node-a", b"payload")
        assert not store.verify("node-b", b"payload", signature)

    def test_keystore_rejects_tampered_payload(self):
        store = KeyStore(seed=3)
        store.register("node-a")
        signature = store.sign("node-a", b"payload")
        assert not store.verify("node-a", b"payload!", signature)

    def test_unknown_principal_raises(self):
        store = KeyStore()
        with pytest.raises(CryptoError):
            store.key_of("ghost")

    def test_register_is_idempotent(self):
        store = KeyStore(seed=1)
        assert store.register("n") is store.register("n")
        assert len(store) == 1


class TestDigests:
    def test_digest_is_deterministic(self):
        assert digest("a", 1, [1, 2]) == digest("a", 1, [1, 2])

    def test_digest_distinguishes_types(self):
        assert digest("1") != digest(1)
        assert digest(True) != digest(1)

    def test_digest_distinguishes_order(self):
        assert digest("a", "b") != digest("b", "a")

    def test_mapping_encoding_is_order_insensitive(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_digest_hex_is_hex(self):
        value = digest_hex("x")
        assert len(value) == 64
        int(value, 16)

    @given(st.lists(st.one_of(st.binary(max_size=40), st.text(max_size=8)), max_size=4))
    def test_digest_hashes_the_canonical_encoding(self, values):
        # ``digest`` skips building the encoding of a bytes value; the hash
        # must still be that of the canonical encoding of every value.
        expected = hashlib.sha256(
            b"".join(canonical_encode(value) + b"\x1f" for value in values)
        ).digest()
        assert digest(*values) == expected

    @given(st.lists(st.integers(), max_size=10), st.lists(st.integers(), max_size=10))
    def test_distinct_lists_distinct_digests(self, a, b):
        if a != b:
            assert digest(a) != digest(b)
        else:
            assert digest(a) == digest(b)


class TestQuorumCertificates:
    def _store(self, owners):
        store = KeyStore(seed=11)
        store.register_all(owners)
        return store

    def test_certificate_requires_enough_signatures(self):
        store = self._store(["n0", "n1", "n2"])
        signer = Signer(store, "n0")
        payload = digest("request")
        contributions = {name: store.sign(name, payload) for name in ["n0", "n1", "n2"]}
        certificate = signer.certify(payload, contributions, required=3)
        assert certificate.is_complete
        assert certificate.verify(store)

    def test_incomplete_certificate_rejected(self):
        store = self._store(["n0", "n1", "n2"])
        signer = Signer(store, "n0")
        payload = digest("request")
        with pytest.raises(CertificateError):
            signer.certify(payload, {"n0": store.sign("n0", payload)}, required=3)

    def test_invalid_contribution_rejected(self):
        store = self._store(["n0", "n1"])
        signer = Signer(store, "n0")
        payload = digest("request")
        with pytest.raises(SignatureError):
            signer.certify(payload, {"n1": b"forged"}, required=1)

    def test_verify_restricts_allowed_signers(self):
        store = self._store(["n0", "n1", "outsider"])
        payload = digest("request")
        entries = tuple(
            SignedPayload(name, payload, store.sign(name, payload))
            for name in ("n0", "outsider")
        )
        certificate = QuorumCertificate(payload_digest=payload, required=2, signatures=entries)
        assert certificate.verify(store)
        assert not certificate.verify(store, allowed_signers=["n0", "n1"])

    def test_duplicate_signer_rejected(self):
        store = self._store(["n0"])
        payload = digest("request")
        entry = SignedPayload("n0", payload, store.sign("n0", payload))
        with pytest.raises(CertificateError):
            QuorumCertificate(payload_digest=payload, required=1, signatures=(entry, entry))

    def test_with_signature_is_idempotent_per_signer(self):
        store = self._store(["n0", "n1"])
        payload = digest("request")
        certificate = QuorumCertificate(payload_digest=payload, required=2)
        entry = SignedPayload("n0", payload, store.sign("n0", payload))
        grown = certificate.with_signature(entry).with_signature(entry)
        assert len(grown.signatures) == 1

    def test_mixed_payloads_rejected(self):
        store = self._store(["n0"])
        certificate = QuorumCertificate(payload_digest=digest("a"), required=1)
        entry = SignedPayload("n0", digest("b"), store.sign("n0", digest("b")))
        with pytest.raises(CertificateError):
            certificate.with_signature(entry)


class TestThresholdSignature:
    def test_aggregate_and_verify(self):
        store = KeyStore(seed=5)
        store.register_all(["n0", "n1", "n2"])
        payload = digest("block")
        aggregate = ThresholdSignature.aggregate_from(store, payload, ["n0", "n1", "n2"], 3)
        assert aggregate.verify(store)

    def test_too_few_signers_rejected(self):
        store = KeyStore(seed=5)
        store.register_all(["n0", "n1"])
        with pytest.raises(CertificateError):
            ThresholdSignature.aggregate_from(store, digest("x"), ["n0"], 2)

    def test_tampered_aggregate_fails(self):
        store = KeyStore(seed=5)
        store.register_all(["n0", "n1"])
        payload = digest("block")
        aggregate = ThresholdSignature.aggregate_from(store, payload, ["n0", "n1"], 2)
        forged = ThresholdSignature(
            payload_digest=payload,
            threshold=2,
            participants=aggregate.participants,
            aggregate=b"\x00" * 32,
        )
        assert not forged.verify(store)
