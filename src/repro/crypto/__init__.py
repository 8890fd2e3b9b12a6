"""Minimal, dependency-free cryptographic primitives.

The TPM, RustMonitor's attestation key, sealing, and the SIGMA quote flow
all need real (verifiable) cryptography.  We implement a small but genuine
suite in pure Python:

* :mod:`repro.crypto.hashes` -- SHA-256 / HMAC / HKDF helpers.
* :mod:`repro.crypto.rsa`    -- RSA keygen (Miller-Rabin), PKCS#1-v1.5-style
  signatures over SHA-256.
* :mod:`repro.crypto.cipher` -- SHAKE-256 stream cipher with an
  encrypt-then-MAC AEAD wrapper (used by EPC page swapping, TPM seal and
  enclave sealing).

Keys are generated from a deterministic DRBG when a seed is supplied so the
whole simulation is reproducible.
"""

from repro.crypto.hashes import sha256, hmac_sha256, hkdf
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.cipher import aead_encrypt, aead_decrypt, Drbg

__all__ = [
    "sha256",
    "hmac_sha256",
    "hkdf",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_keypair",
    "aead_encrypt",
    "aead_decrypt",
    "Drbg",
]
