"""Fixture package: a policy reaching tier mutators via the controller.

Indexed by the analyzer in tests — never imported at runtime.  The
package takes the real module names so ``repro.storage.controller`` is
exempt from D201's direct-call part, exactly like the real controller:
only the transitive walk from the policy entry point can see the
controller-private helper that promotes an item and flushes the
write-delay partition behind the executor's back.
"""
