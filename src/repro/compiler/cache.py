"""Shared cache plumbing: a stats-counting LRU store and stable cache-key
fingerprints.

The cross-session answer cache inside :class:`repro.service.QueryService`
needs two ingredients:

- an **LRU mapping with public counters** (hits / misses / evictions /
  expiries, the numbers operators actually watch), and
- **stable keys**: a cache shared across sessions, processes, or restarts
  must key on *content*, never on object identity or ``hash()`` (which
  ``PYTHONHASHSEED`` randomizes per process).

(The per-session compiled-query cache inside
:class:`repro.queries.engine.QueryEngine` is not one of these: it keeps
pinned manager roots in an ``OrderedDict`` keyed by the query, and counts
its own hits, misses and evictions.)

:class:`LruStatsCache` is the store; :func:`fingerprint` hashes any
sequence of content strings into a short stable hex digest (keyed BLAKE2,
matching :func:`repro.service.pool.shard_of`'s conventions).  The
service composes its keys from :meth:`repro.queries.syntax.UCQ.normalized`
and :meth:`repro.queries.database.Database.fingerprint` — two queries that
differ only in atom order, and two databases with identical content, hit
the same entry.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from typing import Callable, Hashable, Iterator

__all__ = ["LruStatsCache", "fingerprint"]

# Private missing-key sentinel: ``None`` (and any other value) is a
# legitimate cached value, so lookups must never use it to mean "absent".
_MISSING = object()


def fingerprint(*parts: str, digest_size: int = 16) -> str:
    """A stable hex digest of ``parts`` — independent of
    ``PYTHONHASHSEED``, process, and platform, so fingerprints agree
    across service restarts and spawn workers.  Parts are length-prefixed
    before hashing, so ``("ab", "c")`` and ``("a", "bc")`` never collide.
    """
    h = hashlib.blake2b(digest_size=digest_size)
    for part in parts:
        data = part.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


class LruStatsCache:
    """A bounded least-recently-used mapping with public counters.

    ``capacity=None`` never evicts (counters still run).  ``get`` counts a
    hit or a miss and refreshes recency; ``put`` inserts or refreshes and
    evicts the least-recently-used entries beyond ``capacity``.

    ``ttl`` (seconds, ``None`` = entries never expire) arms per-entry
    expiry: each ``put`` stamps a deadline, and a ``get``/``peek`` past
    the deadline drops the entry, counts it in ``expired`` (surfaced as
    ``cache_expired``), and reports a miss — the answer is stale, the
    caller must recompute.  ``clock`` injects the time source for
    deterministic tests (defaults to :func:`time.monotonic`).

    Not thread-safe by itself — callers that share one instance across
    workers hold their own lock (:class:`repro.service.QueryService`
    does).
    """

    def __init__(
        self,
        capacity: int | None = None,
        *,
        ttl: float | None = None,
        clock: Callable[[], float] | None = None,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None for no expiry)")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock if clock is not None else time.monotonic
        # With a TTL, values are stored as (value, deadline) pairs; without
        # one they are stored raw (zero overhead on the common path).
        self._store: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expired = 0

    def _expire(self, key: Hashable, entry) -> bool:
        """True (and drops the entry) when it is past its deadline."""
        if self.ttl is None:
            return False
        _, deadline = entry
        if self._clock() < deadline:
            return False
        del self._store[key]
        self.expired += 1
        return True

    def get(self, key: Hashable, default=None):
        try:
            entry = self._store[key]
        except KeyError:
            self.misses += 1
            return default
        if self._expire(key, entry):
            self.misses += 1
            return default
        self._store.move_to_end(key)
        self.hits += 1
        return entry[0] if self.ttl is not None else entry

    def peek(self, key: Hashable, default=None):
        """Read without touching recency or the hit/miss counters (expiry
        still applies — a stale value is never handed out)."""
        entry = self._store.get(key, _MISSING)
        if entry is _MISSING:
            return default
        if self._expire(key, entry):
            return default
        return entry[0] if self.ttl is not None else entry

    def put(self, key: Hashable, value) -> None:
        if self.ttl is not None:
            # Lazy sweep: without it, an unbounded (capacity=None) cache
            # under a TTL grows forever — expired entries are only dropped
            # when *their own* key is looked up again, which for one-shot
            # keys is never.  Each put pays one pass over the live entries;
            # writes are the rare path in an answer cache.
            now = self._clock()
            stale = [k for k, (_, deadline) in self._store.items() if now >= deadline]
            for k in stale:
                del self._store[k]
            self.expired += len(stale)
            self._store[key] = (value, now + self.ttl)
        else:
            self._store[key] = value
        self._store.move_to_end(key)
        if self.capacity is not None:
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.evictions += 1

    def pop(self, key: Hashable, default=None):
        entry = self._store.pop(key, _MISSING)
        if entry is _MISSING:
            return default
        if self.ttl is not None:
            value, deadline = entry
            if self._clock() >= deadline:
                # Already removed above; just account for the staleness and
                # refuse to hand the value out.
                self.expired += 1
                return default
            return value
        return entry

    def clear(self) -> None:
        self._store.clear()

    def __contains__(self, key: Hashable) -> bool:
        entry = self._store.get(key, _MISSING)
        if entry is _MISSING:
            return False
        return not self._expire(key, entry)

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._store)

    def stats(self) -> dict[str, int]:
        """Public counters, prefixed for direct merging into service and
        engine ``stats()`` dictionaries."""
        return {
            "cache_entries": len(self._store),
            "cache_capacity": 0 if self.capacity is None else self.capacity,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_expired": self.expired,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LruStatsCache(entries={len(self._store)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions}, "
            f"expired={self.expired})"
        )
