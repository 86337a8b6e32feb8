"""The genus result type and the genus of K_n.

Everything an AC-group's report needs to state its genus: the graph is a
disjoint union of cliques, so its genus is a sum of genus_complete values and
no graph search is run.  A leaf module, so that the AC path loads no graph
code.
"""

from __future__ import annotations

from typing import NamedTuple


class GenusResult(NamedTuple):
    """Either an exact genus with a certificate, or a lower/upper interval;
    an exact genus is also its own interval."""

    kind: str                       # "exact" | "bounds"
    value: int | None = None
    certificate: str | None = None  # exact: how the value was obtained
    lower: int | None = None
    upper: int | None = None
    provenance: tuple = ()          # bounds: sources

    @classmethod
    def exact(cls, value, certificate):
        if value < 0:
            raise ValueError("genus cannot be negative")
        return cls("exact", value=value, certificate=certificate,
                   lower=value, upper=value)

    @classmethod
    def bounds(cls, lower, upper, provenance=()):
        if not 0 <= lower <= upper:
            raise ValueError(f"invalid bounds [{lower}, {upper}]")
        return cls("bounds", lower=lower, upper=upper, provenance=tuple(provenance))

    @property
    def is_exact(self):
        return self.kind == "exact"


def genus_complete(n: int) -> int:
    """Genus of K_n: ceil((n-3)(n-4)/12), which is 0 for n <= 4."""
    if n < 0:
        raise ValueError("vertex count cannot be negative")
    if n <= 4:
        return 0
    return -((n - 3) * (n - 4) // -12)
