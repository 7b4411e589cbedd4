"""Independent re-implementation of keyed swap-or-not FPE, used to check outputs.

It follows the normative PRF encodings in ``swapornot.prf`` (keyed
BLAKE2b-128, personalization ``son.prf``; ``K``/``T``/``B`` tags with
fixed-width fields) and the mod-add round of ``swapornot.cipher``, but shares
no code with the library: a defect that changes what the library computes
(a stale subkey cache, a wrong round order) makes its outputs differ from
these.
"""

from __future__ import annotations

import hashlib

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"


class ReferenceFpe:
    """Mod-add swap-or-not over ``radix**length`` under one 32-byte key."""

    def __init__(self, key: bytes, radix: int, length: int, rounds: int):
        self._keyed = hashlib.blake2b(digest_size=16, key=key, person=b"son.prf")
        self.radix = radix
        self.length = length
        self.size = radix**length
        self.subkeys = self._subkeys(rounds)

    def _block(self, message: bytes) -> bytes:
        h = self._keyed.copy()
        h.update(message)
        return h.digest()

    def _subkeys(self, rounds: int) -> list[int]:
        # Rejection sampling: candidates at or above the largest multiple of
        # N below 2**width are discarded, so every subkey is exactly uniform.
        n = self.size
        width = 8 if n <= 1 << 63 else 16
        limit = (1 << (8 * width)) // n * n
        out: list[int] = []
        counter = 0
        while len(out) < rounds:
            counter += 1
            block = self._block(b"K" + counter.to_bytes(4, "big"))
            candidate = int.from_bytes(block[:width], "big")
            if candidate < limit:
                out.append(candidate % n)
        return out

    def _encipher(self, x: int, tweak: bytes) -> int:
        n = self.size
        td = self._block(b"T" + tweak)
        for i, k in enumerate(self.subkeys, start=1):
            partner = (k - x) % n
            name = max(x, partner)
            bit = self._block(b"B" + i.to_bytes(4, "big") + td + name.to_bytes(16, "big"))
            if bit[-1] & 1:
                x = partner
        return x

    def _value(self, text: str) -> int:
        value = 0
        for c in text:
            value = value * self.radix + ALPHABET.index(c)
        return value

    def _text(self, value: int) -> str:
        digits = []
        for _ in range(self.length):
            value, d = divmod(value, self.radix)
            digits.append(ALPHABET[d])
        return "".join(reversed(digits))

    def encrypt(self, plaintext: str, tweak: bytes) -> str:
        return self._text(self._encipher(self._value(plaintext), tweak))
