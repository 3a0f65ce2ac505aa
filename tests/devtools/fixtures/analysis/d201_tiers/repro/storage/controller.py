"""Stand-in controller: defines mutators and a private helper using them."""


class StorageController:
    """Storage surface exposing a tier mutator and a cache mutator."""

    def promote_item(self, now: float, item_id: str, tier: str) -> float:
        """Mutator: move an item to a faster tier."""
        return now

    def flush_write_delay(self, now: float) -> float:
        """Mutator: bulk-flush the write-delay partition."""
        return now

    def _rebalance(self, now: float) -> None:
        """Controller-private helper calling both mutators on itself."""
        self.promote_item(now, "hot", "flash")
        self.flush_write_delay(now)
