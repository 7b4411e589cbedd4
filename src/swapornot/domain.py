"""Finite message spaces [N] with the two group laws the cipher supports.

A domain is the set {0, ..., N-1} together with either addition modulo N
or bitwise XOR (the latter only when N is a power of two).  Every round of
the cipher pairs an element X with its "partner" under a subkey K: the
unique X' with X + X' = K (mod N), or X' = K xor X in the XOR case.  The
rule is spelled inline, as ``k ^ x if xor else (k - x) % n``, where it runs:
both loops of ``cipher._run``, ``mixing._transition`` and ``mixing.shuffle_sample``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, check_int

# Elements are unsigned integers of at most 128 bits.
MAX_DOMAIN_SIZE = 1 << 128
# Longest key schedule, the round planner's limit in ``bounds``; below the largest
# value of prf's 4-byte index field, so every round index fits it.
MAX_ROUNDS = 1 << 16


class GroupLaw(Enum):
    MOD_ADD = "add"
    XOR = "xor"


@dataclass(frozen=True)
class Domain:
    """The message space [N] = {0, ..., size-1} under a group law."""

    size: int
    law: GroupLaw = GroupLaw.MOD_ADD

    def __post_init__(self) -> None:
        check_int(self.size, "domain size", 2, MAX_DOMAIN_SIZE, DomainError)
        if not isinstance(self.law, GroupLaw):
            raise DomainError(f"law must be a GroupLaw, got {self.law!r}")
        if self.law is GroupLaw.XOR and self.size & (self.size - 1):
            raise DomainError(f"XOR law requires a power-of-two size, got {self.size}")

    @classmethod
    def xor_bits(cls, bit_width: int) -> "Domain":
        """Domain of bit_width-bit strings under XOR (size 2**bit_width)."""
        check_int(bit_width, "bit width", 1, MAX_DOMAIN_SIZE.bit_length() - 1, DomainError)
        return cls(1 << bit_width, GroupLaw.XOR)

    def check_element(self, x: int) -> None:
        check_int(x, "element", 0, self.size - 1, DomainError)
