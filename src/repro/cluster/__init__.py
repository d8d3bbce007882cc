"""Multi-replica serving: the shard-aware fleet router and its parts.

The single-host serving stack (:mod:`repro.serving`) maxes out one machine;
this package is the next rung of the ROADMAP's scale-out ladder.  It fronts
N ``repro-thermal serve`` replicas with a stdlib-HTTP router
(``repro-thermal route``) that owns three concerns a production inference
fleet cannot do without:

* **placement** — :mod:`repro.cluster.hashing` rendezvous-hashes each
  ``(chip, resolution, backend)`` group key onto a stable replica, so every
  replica's LRU solver pools see a consistent slice of keys and membership
  changes move only the minimal set of keys;
* **health + draining** — :mod:`repro.cluster.membership` probes replica
  ``/healthz`` endpoints, drains a failing replica (its slice remaps to the
  survivors, in-flight requests retry once on a peer) and re-admits it only
  after a ``POST /warm_up`` replay pre-builds its key slice;
* **aggregation** — the router merges replica ``/stats``, re-exports
  replica ``/metrics`` with a ``replica`` label and summarizes the fleet on
  ``/healthz``, so one URL feeds dashboards for the whole fleet.

See ``docs/CLUSTER.md`` for topology, semantics and capacity planning.
"""

from repro.cluster.hashing import owner, rank, rendezvous_score
from repro.cluster.membership import Membership, Replica
from repro.cluster.proxy import ReplicaClient, ReplicaError, ReplicaResponse
from repro.cluster.router import FleetRouter

__all__ = [
    "FleetRouter",
    "Membership",
    "Replica",
    "ReplicaClient",
    "ReplicaError",
    "ReplicaResponse",
    "owner",
    "rank",
    "rendezvous_score",
]
