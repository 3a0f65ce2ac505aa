"""Fixture: one D201 direct-call finding per storage mutator (15 lines).

A module outside ``repro.actions`` and ``repro.storage.controller``
calls every mutator in ``STORAGE_MUTATORS`` itself instead of applying
an ``ActionPlan`` through the executor.
"""

storage_controller = object()
disk_enclosure = object()
virtualization = object()

storage_controller.migrate_item(0.0, "item", "enc-01")
storage_controller.preload_item(0.0, "item")
storage_controller.unpin_item("item")
storage_controller.select_write_delay(0.0, {"item"})
storage_controller.flush_write_delay(0.0)
storage_controller.flush_item(0.0, "item")
storage_controller.charge_block_migration(0.0, "item", 512, "a", "b")
disk_enclosure.enable_power_off(0.0)
disk_enclosure.disable_power_off(0.0)
storage_controller.promote_item(0.0, "item", "flash")
storage_controller.demote_item(0.0, "item", "hdd")
storage_controller.archive_item(0.0, "item")
storage_controller.replicate_item(0.0, "item", "hdd")
virtualization.add_replica("item", "enc-01", 512)
virtualization.remove_replica("item", "enc-01")
