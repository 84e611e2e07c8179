"""Deadlock detection and recovery bookkeeping (paper Sec 5.3 / Fig 6).

"When a job stays at a node for more than a threshold period, that node
needs to report the occurrence of deadlock during its next upload slot.
The central controller sends then the new routing instruction to that
node to redirect the job along an unlocked path."

The policy object holds the thresholds; the registry tracks which output
ports the controller currently treats as blocked, with an expiry so
transient congestion does not poison routing forever.  Phase 3 consults
the blocked set via :class:`repro.core.view.NetworkView`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class DeadlockPolicy:
    """Thresholds of the deadlock-recovery protocol.

    Attributes:
        wait_threshold_frames: Frames a packet may wait at one node
            before the node reports a deadlock.
        blocked_expiry_frames: Frames a reported port stays excluded
            from phase 3 before the controller forgives it.
    """

    wait_threshold_frames: int = 4
    blocked_expiry_frames: int = 8

    def __post_init__(self) -> None:
        if self.wait_threshold_frames < 1:
            raise ConfigurationError(
                "wait threshold must be >= 1 frame, got "
                f"{self.wait_threshold_frames}"
            )
        if self.blocked_expiry_frames < 1:
            raise ConfigurationError(
                "blocked-port expiry must be >= 1 frame, got "
                f"{self.blocked_expiry_frames}"
            )


class BlockedPortRegistry:
    """Controller-side set of ports excluded by deadlock recovery."""

    def __init__(self, policy: DeadlockPolicy):
        self._policy = policy
        self._blocked: dict[tuple[int, int], int] = {}

    def report(self, node: int, port: int, frame: int) -> bool:
        """Register a deadlock report for port ``node -> port``.

        Returns True when the blocked set changed (which forces a
        routing recomputation).
        """
        key = (node, port)
        expiry = frame + self._policy.blocked_expiry_frames
        changed = key not in self._blocked
        self._blocked[key] = expiry
        return changed

    def expire(self, frame: int) -> bool:
        """Drop entries whose expiry has passed; True if any were dropped."""
        stale = [key for key, until in self._blocked.items() if until <= frame]
        for key in stale:
            del self._blocked[key]
        return bool(stale)

    def blocked_ports(self) -> frozenset[tuple[int, int]]:
        """Currently excluded ``(node, successor)`` pairs."""
        return frozenset(self._blocked)
