"""Durable, shared verification state: the persistent clause store.

``repro.store`` is the engine's one learnt-clause cache: a
concurrency-safe sqlite database of learnt clauses keyed by CNF
fingerprint, with LBD/age/hit metadata, size-bounded eviction, and
checkpoint blobs that make distance walks and sweeps resumable after a
kill.  :class:`WarmStart` is the one round trip between a solve session
and the store, used alike by the engine's code contexts and by the split
pool's stripes.

The package is deliberately stdlib-only and imports nothing from the api
or solver layers, so process-pool workers (:mod:`repro.smt.parallel`) open
their own store from the directory in their init payload without dragging
the engine into every worker.
"""

from repro.store.clause_store import STORE_FILENAME, ClauseStore, WarmStart

__all__ = [
    "STORE_FILENAME",
    "ClauseStore",
    "WarmStart",
]
