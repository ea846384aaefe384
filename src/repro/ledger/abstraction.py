"""Abstraction functions (λ) and summarized views for higher-level domains.

At the end of every round with something new a height-1 domain sends its
parent an application-dependent *abstract version* of the blockchain-state
updates of that round, λ(D_rn − D_rn−1) (§5); skipped rounds leave gaps in
the round numbers a view merges.  Height-2 and above domains maintain only
this summarized view, which still supports aggregation queries — e.g. the
total amount of exchanged assets in a micropayment application, or the total
working hours per driver in ridesharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.common.types import DomainId
from repro.errors import StateError

__all__ = [
    "AbstractionFunction",
    "identity_abstraction",
    "SelectKeysAbstraction",
    "PrefixSumAbstraction",
    "SummarizedView",
]

#: λ — maps a state delta to its abstract (summarized) form.
AbstractionFunction = Callable[[Mapping[str, Any]], Dict[str, Any]]


def identity_abstraction(delta: Mapping[str, Any]) -> Dict[str, Any]:
    """The trivial λ that forwards the full delta (no summarisation)."""
    return dict(delta)


@dataclass(frozen=True)
class SelectKeysAbstraction:
    """λ that keeps only keys matching any of the configured prefixes.

    The ridesharing example in the paper forwards only the working-hour
    attribute of updated records; that is ``SelectKeysAbstraction(("hours:",))``.
    """

    prefixes: Tuple[str, ...]

    def __call__(self, delta: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            key: value
            for key, value in delta.items()
            if any(key.startswith(prefix) for prefix in self.prefixes)
        }


@dataclass(frozen=True)
class PrefixSumAbstraction:
    """λ that reduces a delta to per-prefix sums of numeric values.

    Useful when higher-level domains only need totals (e.g. total transferred
    volume per round) rather than per-account values.
    """

    prefixes: Tuple[str, ...]
    output_key_format: str = "sum:{prefix}"

    def __call__(self, delta: Mapping[str, Any]) -> Dict[str, Any]:
        summary: Dict[str, float] = {}
        for prefix in self.prefixes:
            total = sum(
                value
                for key, value in delta.items()
                if key.startswith(prefix) and isinstance(value, (int, float))
            )
            summary[self.output_key_format.format(prefix=prefix)] = total
        return summary


class SummarizedView:
    """The summarized blockchain state held by a height-2+ domain.

    The view records, per child domain, the latest abstract value of every key
    it has received, and answers aggregation queries across children.  The
    root domain's view therefore summarises the entire network (§5).
    """

    def __init__(self, domain: DomainId) -> None:
        self._domain = domain
        self._per_child: Dict[DomainId, Dict[str, Any]] = {}
        self._rounds_merged: Dict[DomainId, int] = {}

    @property
    def domain(self) -> DomainId:
        return self._domain

    @property
    def children(self) -> Tuple[DomainId, ...]:
        return tuple(self._per_child.keys())

    def merge_delta(
        self, child: DomainId, abstract_delta: Mapping[str, Any], round_number: int
    ) -> None:
        """Fold one round's abstract delta from ``child`` into the view.

        Rounds must arrive in order per child; a regression indicates either a
        replayed or a reordered block message and is rejected.
        """
        last = self._rounds_merged.get(child, 0)
        if round_number <= last:
            raise StateError(
                f"{self._domain}: round {round_number} from {child} already merged "
                f"(latest {last})"
            )
        bucket = self._per_child.setdefault(child, {})
        bucket.update(abstract_delta)
        self._rounds_merged[child] = round_number

    def value(self, child: DomainId, key: str, default: Any = None) -> Any:
        return self._per_child.get(child, {}).get(key, default)

    def keys(self, child: Optional[DomainId] = None) -> Iterable[str]:
        if child is not None:
            return tuple(self._per_child.get(child, {}).keys())
        seen = set()
        for bucket in self._per_child.values():
            seen.update(bucket.keys())
        return tuple(sorted(seen))

    @staticmethod
    def _matches(key: str, key_prefix: str) -> bool:
        """Match a prefix either at the start of the key or after a ``/``.

        Views at height 3 and above hold keys flattened through intermediate
        domains (e.g. ``"D11/volume:D11"``), so aggregation queries written
        against the application's own key prefix must still find them.
        """
        if not key_prefix:
            return True
        return key.startswith(key_prefix) or f"/{key_prefix}" in key

    def aggregate_sum(self, key_prefix: str = "") -> float:
        """Sum of every numeric value whose key matches ``key_prefix``."""
        total = 0.0
        for bucket in self._per_child.values():
            for key, value in bucket.items():
                if self._matches(key, key_prefix) and isinstance(value, (int, float)):
                    total += value
        return total

    def aggregate_by_key(self, key_prefix: str = "") -> Dict[str, float]:
        """Per-key sums across children (e.g. working hours per driver)."""
        totals: Dict[str, float] = {}
        for bucket in self._per_child.values():
            for key, value in bucket.items():
                if self._matches(key, key_prefix) and isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0.0) + value
        return totals

    def own_abstract_delta(self, since: "SummarizedViewCursor") -> Dict[str, Any]:
        """Delta of the view itself for forwarding further up the hierarchy."""
        current = self.flatten()
        return {
            key: value
            for key, value in current.items()
            if since.previous.get(key) != value
        }

    def flatten(self) -> Dict[str, Any]:
        """One flat mapping ``child/key -> value`` describing the whole view."""
        flat: Dict[str, Any] = {}
        for child, bucket in self._per_child.items():
            for key, value in bucket.items():
                flat[f"{child.name}/{key}"] = value
        return flat

    def cursor(self) -> "SummarizedViewCursor":
        """Capture the current content for later delta extraction."""
        return SummarizedViewCursor(previous=self.flatten())


@dataclass(frozen=True)
class SummarizedViewCursor:
    """A point-in-time capture of a :class:`SummarizedView` used for deltas."""

    previous: Dict[str, Any] = field(default_factory=dict)
