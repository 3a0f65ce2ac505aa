"""Fixture package: D201 storage boundary across a helper-call chain.

Indexed by the analyzer in tests — never imported at runtime.  The
package mirrors the real layering in miniature: ``base`` declares the
planner contract and the storage surface, ``helpers`` stands between,
and ``policy`` holds one pure policy (plans through the executor
gateway) and one leaky policy that reaches a storage mutator two helper
hops below its entry point.  D201 reports the helper's call where it is
written and the leaky policy with its full call chain.
"""
