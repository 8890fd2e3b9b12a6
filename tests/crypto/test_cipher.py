"""Tests for the AEAD cipher and the DRBG."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cipher import Drbg, aead_decrypt, aead_encrypt
from repro.errors import SealError

KEY = b"k" * 32
NONCE = b"n" * 16


def test_roundtrip():
    blob = aead_encrypt(KEY, NONCE, b"secret data", aad=b"context")
    assert aead_decrypt(KEY, blob, aad=b"context") == b"secret data"


def test_empty_plaintext_roundtrip():
    blob = aead_encrypt(KEY, NONCE, b"")
    assert aead_decrypt(KEY, blob) == b""


def test_wrong_key_fails():
    blob = aead_encrypt(KEY, NONCE, b"data")
    with pytest.raises(SealError):
        aead_decrypt(b"x" * 32, blob)


def test_wrong_aad_fails():
    blob = aead_encrypt(KEY, NONCE, b"data", aad=b"a")
    with pytest.raises(SealError):
        aead_decrypt(KEY, blob, aad=b"b")


def test_tampered_ciphertext_fails():
    blob = bytearray(aead_encrypt(KEY, NONCE, b"data"))
    blob[len(blob) // 2] ^= 1
    with pytest.raises(SealError):
        aead_decrypt(KEY, bytes(blob))


def test_truncated_blob_fails():
    with pytest.raises(SealError):
        aead_decrypt(KEY, b"short")


def test_bad_nonce_length_rejected():
    with pytest.raises(ValueError):
        aead_encrypt(KEY, b"short", b"data")


def test_ciphertext_differs_from_plaintext():
    blob = aead_encrypt(KEY, NONCE, b"A" * 100)
    assert b"A" * 100 not in blob


@given(st.binary(max_size=500), st.binary(max_size=32))
def test_roundtrip_property(plaintext, aad):
    blob = aead_encrypt(KEY, NONCE, plaintext, aad=aad)
    assert aead_decrypt(KEY, blob, aad=aad) == plaintext


# SHA-256 of aead_encrypt(bytes(range(32)), bytes(range(100, 116)),
# plaintext(n), aad(n)) as produced by the original byte-at-a-time XOR.
# Sealed blobs, TPM seals and swap blobs must stay byte-compatible.
KAT_SHA256 = {
    0: "ad400d6bf04c8296999357e9c1cd94263ceb31d174a6d24fee137a09e4484b02",
    1: "46f5e0d5077effada02e1f70852918e4c31cc9a337f2b2520dce7218854f8da2",
    31: "0541a4e66ac1de96468c7aa39da2f543aa66e3c410ccc01310cd69edb8960f55",
    32: "8c56948b005dabac2bd5d738232adbf025d2186c69211eeeab8c7033a5f2a207",
    33: "15c7710031cd90a9b31b37273196077b4c0a8aa9ab9f47239a1802128544ae99",
    4096: "f8e4e2bb68b7d71309ad1e50c252f8005658af5dbf77b520b221f687a2aa5cfb",
    5000: "819dfe0ee704cbff24b85ac82f4996bba1c4c195425825033fb576a9c96c0e4d",
}


@pytest.mark.parametrize("n", sorted(KAT_SHA256))
def test_known_answer(n):
    key = bytes(range(32))
    nonce = bytes(range(100, 116))
    plaintext = bytes((i * 7 + 3) & 255 for i in range(n))
    aad = b"EWB" + n.to_bytes(8, "little")
    blob = aead_encrypt(key, nonce, plaintext, aad=aad)
    assert hashlib.sha256(blob).hexdigest() == KAT_SHA256[n]
    assert aead_decrypt(key, blob, aad=aad) == plaintext


def test_drbg_deterministic_from_seed():
    assert Drbg(b"seed").read(64) == Drbg(b"seed").read(64)


def test_drbg_differs_by_seed():
    assert Drbg(b"a").read(32) != Drbg(b"b").read(32)


def test_drbg_stream_advances():
    drbg = Drbg(b"seed")
    assert drbg.read(32) != drbg.read(32)


def test_drbg_randint_bits_msb_set():
    drbg = Drbg(b"seed")
    for bits in (8, 64, 512):
        value = drbg.randint_bits(bits)
        assert value.bit_length() == bits


def test_drbg_unseeded_unique():
    assert Drbg().read(32) != Drbg().read(32)
