"""Tests for the AEAD cipher and the DRBG."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import (Drbg, _split_keys, aead_decrypt,
                                 aead_encrypt)
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


def spec_blob(key, nonce, plaintext, aad):
    """The AEAD as specified, written straight from hashlib and hmac."""
    enc_key = hashlib.sha256(b"enc" + key).digest()
    mac_key = hashlib.sha256(b"mac" + key).digest()
    stream = hashlib.shake_256(enc_key + nonce).digest(len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac.new(mac_key, nonce + aad + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


# SHA-256 of aead_encrypt(bytes(range(32)), bytes(range(100, 116)),
# plaintext(n), aad(n)) under the SHAKE-256 keystream.  They pin the
# blob bytes of the shipped construction (key split, keystream, XOR,
# tag, layout); spec_blob derives the same bytes independently from
# hashlib/hmac.
KAT_SHA256 = {
    0: "ad400d6bf04c8296999357e9c1cd94263ceb31d174a6d24fee137a09e4484b02",
    1: "f5ad14c2abe6e0d7d53d86f7f7b5ed15ba83ccadf8ad0e774036ab9bc9da3ac4",
    31: "43d13fb3fae9fd26d6e1a2584ea931f78b5fc15167262e7afb99078771788ab9",
    32: "039e2fd2c8976157d50affdb7771150f693191d171a895654d1aa9e77fc0e0d5",
    33: "4eeacbbde4cc78b47b8cd136bd19e0a5d5c4a7fe0c9f1bd6a7ed286ac728a2df",
    4096: "79c80f302aa7080d0b033c7565bd451d74aac9c77e2f10885e63d671293a5e1b",
    5000: "c9f4cbd219bbf6c4fe47cef2c05461aaafeb797910d8cb120ad5375ee59889f5",
}


@pytest.mark.parametrize("n", sorted(KAT_SHA256))
def test_known_answer(n):
    key = bytes(range(32))
    nonce = bytes(range(100, 116))
    plaintext = bytes((i * 7 + 3) & 255 for i in range(n))
    aad = b"EWB" + n.to_bytes(8, "little")
    blob = aead_encrypt(key, nonce, plaintext, aad=aad)
    assert hashlib.sha256(blob).hexdigest() == KAT_SHA256[n]
    assert blob == spec_blob(key, nonce, plaintext, aad)
    assert aead_decrypt(key, blob, aad=aad) == plaintext


SPEC_LENGTHS = sorted(KAT_SHA256)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPEC_LENGTHS).flatmap(
           lambda n: st.binary(min_size=n, max_size=n)),
       st.binary(min_size=32, max_size=32),
       st.binary(min_size=16, max_size=16),
       st.binary(max_size=64))
def test_matches_spec_construction(plaintext, key, nonce, aad):
    blob = aead_encrypt(key, nonce, plaintext, aad=aad)
    assert blob == spec_blob(key, nonce, plaintext, aad)
    assert aead_decrypt(key, blob, aad=aad) == plaintext


def test_split_keys_cache_matches_formula():
    key = b"split-keys-formula".ljust(32, b"\0")
    expected = (hashlib.sha256(b"enc" + key).digest(),
                hashlib.sha256(b"mac" + key).digest())
    assert _split_keys(key) == expected
    hits = _split_keys.cache_info().hits
    assert _split_keys(key) == expected          # served from the cache
    assert _split_keys.cache_info().hits == hits + 1


def test_split_keys_cache_does_not_leak_across_keys():
    key_a = b"A" * 32
    key_b = b"B" * 32
    blob = aead_encrypt(key_a, NONCE, b"page content", aad=b"va")
    assert aead_decrypt(key_a, blob, aad=b"va") == b"page content"
    hits = _split_keys.cache_info().hits
    with pytest.raises(SealError):
        aead_decrypt(key_b, blob, aad=b"va")
    with pytest.raises(SealError):
        aead_decrypt(key_b, blob, aad=b"va")     # B now warm as well
    assert _split_keys.cache_info().hits > hits
    assert _split_keys(key_a) != _split_keys(key_b)
    assert aead_decrypt(key_a, blob, aad=b"va") == b"page content"


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
