"""Consistent placement of ``(chip, resolution, backend)`` groups on replicas.

A plain ``crc32(key) % n`` would reshuffle almost every key whenever the
replica count ``n`` changes, evicting every replica's warm LRU solver pools
on each membership event.  This module uses **rendezvous
(highest-random-weight) hashing** over CRC-32 instead: every
``(replica, key)`` pair gets a deterministic score and a key lives on the highest-scoring
replica.  Removing a replica moves *only* that replica's keys (each falls
to its own second choice); adding one steals only the keys it now wins.
That minimal-disruption property is exactly what keeps the per-replica
solver pools warm through drain/rejoin cycles, and it is asserted directly
in ``tests/cluster/test_hashing.py``.
"""

from __future__ import annotations

import zlib
from typing import Hashable, List, Sequence, Tuple

__all__ = ["rendezvous_score", "owner", "rank"]


def rendezvous_score(replica_id: str, key: Hashable) -> int:
    """Deterministic weight of placing ``key`` on ``replica_id``.

    CRC-32 over the ``repr`` of the key, salted with the replica identity
    so each replica induces an independent ordering over keys.
    """
    token = f"{replica_id}|{key!r}".encode("utf-8")
    return zlib.crc32(token)


def owner(key: Hashable, replica_ids: Sequence[str]) -> str:
    """The replica that owns ``key`` among ``replica_ids``.

    Raises :class:`ValueError` on an empty membership — the caller (the
    router) must answer 503, not guess.  Ties break on the lexically
    smallest replica id so placement is total and deterministic.
    """
    if not replica_ids:
        raise ValueError("cannot place a key on an empty replica set")
    return min(replica_ids, key=lambda rid: (-rendezvous_score(rid, key), rid))


def rank(key: Hashable, replica_ids: Sequence[str]) -> List[str]:
    """All of ``replica_ids`` ordered by preference for ``key``.

    ``rank(key, ids)[0] == owner(key, ids)``; the tail is the retry order a
    router walks when the owner fails mid-request.  Because rendezvous
    scores are independent of membership, dropping the owner from the set
    promotes exactly the second-ranked replica — drain and retry agree on
    placement by construction.
    """
    return sorted(replica_ids, key=lambda rid: (-rendezvous_score(rid, key), rid))
