"""Stand-in storage package for the tier-boundary fixture."""
