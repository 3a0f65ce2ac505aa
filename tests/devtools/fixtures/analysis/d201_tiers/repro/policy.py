"""A policy reaching the controller's private rebalancing helper."""

from repro.storage.controller import StorageController


class PowerPolicy:
    """Planner base class (matched by bare name, like the real one)."""


class RebalancingPolicy(PowerPolicy):
    """Mutates tiers through a controller helper, not the executor."""

    tiers: StorageController

    def on_checkpoint(self, now: float) -> None:
        self.tiers._rebalance(now)
