"""Training loop, policies, timing pipeline, data-parallel topology."""
