"""Occupation-number configurations on a chain of fermionic sites.

A configuration is the bit string ``(i_1, ..., i_L)`` with ``i_j`` the
occupation of site ``j``.  Sites are numbered from 1 throughout the
public API.  The associated basis state is the ordered product of
creation operators on the occupied sites, applied to the vacuum with
site indices increasing from left to right.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FockConfig:
    """Occupation bit string of length L."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"occupations must be 0 or 1, got {self.bits}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_string(cls, s: str) -> "FockConfig":
        """Parse a string such as ``"010"`` (site 1 is the first character)."""
        if not s or any(ch not in "01" for ch in s):
            raise ValueError(f"configuration string must be nonempty over 0/1, got {s!r}")
        return cls(tuple(int(ch) for ch in s))

    @classmethod
    def vacuum(cls, L: int) -> "FockConfig":
        return cls((0,) * L)

    @property
    def L(self) -> int:
        return len(self.bits)

    @property
    def occupied(self) -> tuple[int, ...]:
        """Occupied sites (1-based, increasing)."""
        return tuple(j + 1 for j, b in enumerate(self.bits) if b)

    @property
    def n_occupied(self) -> int:
        return sum(self.bits)

    @property
    def parity(self) -> int:
        """(-1)**(number of fermions)."""
        return -1 if self.n_occupied % 2 else 1

    def flipped(self, sites) -> "FockConfig":
        """Exchange occupied/empty on the given 1-based sites."""
        sites = set(sites)
        if not sites <= set(range(1, self.L + 1)):
            raise ValueError(f"sites {sorted(sites)} out of range 1..{self.L}")
        return FockConfig(tuple(b ^ 1 if j + 1 in sites else b for j, b in enumerate(self.bits)))

    def with_ancilla(self, bit: int) -> "FockConfig":
        """Prepend an ancillary site (new site 1) with the given occupation."""
        return FockConfig((int(bit),) + self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

