"""Retry/timeout/degrade policy for supervised fan-out.

One frozen :class:`RunPolicy` value describes everything the supervisor
(:mod:`repro.exec.supervisor`) may do on an item's behalf: how many times
a failed item is retried, how long a pooled item may run before it is
declared hung, how long to back off between retries, how many times a
broken process pool is rebuilt, and whether exhausted restarts degrade to
serial in-process execution instead of aborting the run.

Backoff is **deterministic**: the jitter factor is derived from a SHA-256
digest of ``(seed, item index, attempt)`` — never from wall-clock state
or the global ``random`` module — so a retried run sleeps the same
amounts every time and the repository's determinism rules (reprolint RD)
stay green.  The default ``backoff_base`` of ``0.0`` disables sleeping
entirely, which is right for the pure closed-form workers where a retry
is free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro._util import reject_unknown_keys, require

__all__ = ["RunPolicy"]


@dataclass(frozen=True)
class RunPolicy:
    """How the supervised runtime treats failures.

    max_retries:
        extra executions granted to a failed/interrupted item — every
        item runs at most ``max_retries + 1`` times.
    timeout:
        per-item wall-clock budget in seconds for *pooled* execution
        (measured from the moment the supervisor observes the item
        running; a shard of ``k`` items gets ``k × timeout``).  ``None`` disables the check.  Serial execution cannot
        preempt a running call, so timeouts are not enforced there.
    backoff_base / backoff_factor / backoff_max:
        the delay before retry attempt ``k`` (1-based) is
        ``base · factor^(k-1) · jitter`` seconds, capped at
        ``backoff_max``; ``base = 0`` disables sleeping.
    seed:
        root of the deterministic jitter derivation (see
        :meth:`backoff_delay`).
    pool_restarts:
        how many times a broken pool (worker crash / hung item) is torn
        down and respawned before the run degrades or aborts.
    degrade_serial:
        with restarts exhausted, ``True`` finishes the remaining items
        serially in-process; ``False`` marks them failed.
    """

    max_retries: int = 2
    timeout: "float | None" = None
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    seed: int = 0
    pool_restarts: int = 2
    degrade_serial: bool = True

    def __post_init__(self) -> None:
        require(
            isinstance(self.max_retries, int) and not isinstance(self.max_retries, bool)
            and self.max_retries >= 0,
            f"max_retries must be a non-negative int, got {self.max_retries!r}",
        )
        require(
            self.timeout is None or (isinstance(self.timeout, (int, float)) and self.timeout > 0),
            f"timeout must be None or a positive number of seconds, got {self.timeout!r}",
        )
        require(
            isinstance(self.backoff_base, (int, float)) and self.backoff_base >= 0,
            f"backoff_base must be >= 0 seconds, got {self.backoff_base!r}",
        )
        require(
            isinstance(self.backoff_factor, (int, float)) and self.backoff_factor >= 1.0,
            f"backoff_factor must be >= 1, got {self.backoff_factor!r}",
        )
        require(
            isinstance(self.backoff_max, (int, float)) and self.backoff_max >= 0,
            f"backoff_max must be >= 0 seconds, got {self.backoff_max!r}",
        )
        require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0,
            f"seed must be a non-negative int, got {self.seed!r}",
        )
        require(
            isinstance(self.pool_restarts, int) and not isinstance(self.pool_restarts, bool)
            and self.pool_restarts >= 0,
            f"pool_restarts must be a non-negative int, got {self.pool_restarts!r}",
        )
        require(
            isinstance(self.degrade_serial, bool),
            f"degrade_serial must be a bool, got {self.degrade_serial!r}",
        )

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Deterministic delay in seconds before *attempt* of item *index*.

        ``attempt`` counts executions already consumed, so the first run
        (``attempt == 0``) never sleeps.  The jitter multiplier lies in
        ``[0.5, 1.5)`` and is a pure function of ``(seed, index,
        attempt)`` — replaying a run replays its backoff schedule.
        """
        if attempt <= 0 or self.backoff_base <= 0.0:
            return 0.0
        digest = hashlib.sha256(
            f"{self.seed}:{index}:{attempt}".encode("utf-8")
        ).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2.0**64
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1) * jitter
        return min(float(self.backoff_max), float(delay))

    def to_dict(self) -> "dict[str, Any]":
        """JSON-safe mapping (embedded in partial-result ``data``)."""
        return {
            "max_retries": self.max_retries,
            "timeout": self.timeout,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "seed": self.seed,
            "pool_restarts": self.pool_restarts,
            "degrade_serial": self.degrade_serial,
        }

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "RunPolicy":
        """Rebuild a policy from :meth:`to_dict`; unknown keys rejected."""
        reject_unknown_keys(
            data,
            (
                "max_retries", "timeout", "backoff_base", "backoff_factor",
                "backoff_max", "seed", "pool_restarts", "degrade_serial",
            ),
            "run policy",
        )
        return cls(**data)
