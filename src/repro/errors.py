"""Exception hierarchy for the block DAG framework.

All library errors derive from :class:`ReproError` so callers can catch
framework failures without masking programming errors (``TypeError``,
``KeyError``...).  The hierarchy mirrors the layering of the system:
crypto, DAG, gossip, interpretation, runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad signature, unknown key...)."""


class UnknownKeyError(CryptoError):
    """No key material registered for the requested server."""


class DagError(ReproError):
    """Violation of a graph or block DAG invariant."""


class CycleError(DagError):
    """An insertion would create a cycle (cannot happen for honest use;
    guards against direct misuse of the graph layer)."""


class MissingPredecessorError(DagError):
    """A block's predecessor is not present in the DAG (Def. 3.4 (ii))."""


class CodecError(ReproError):
    """Canonical encoding or decoding failed."""


class NetworkError(ReproError):
    """Transport-level failure in the simulated network."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ScenarioError(ReproError):
    """A declarative scenario is malformed: unknown protocol, fault or
    stop-condition kind, a fault naming an unknown server, or a JSON
    document that does not round-trip to a valid :class:`Scenario`."""


class StorageError(ReproError):
    """Durable-storage failure (WAL, checkpoint, or recovery)."""


class WalCorruptionError(StorageError):
    """A write-ahead-log record failed its integrity check somewhere
    other than the torn tail of the newest file."""


class CheckpointError(StorageError):
    """A checkpoint could not be written, read, or installed."""


class PrunedStateError(SimulationError):
    """Interpretation needed the state of a block pruned below the
    stable frontier (a block referenced something past the GC horizon)."""
