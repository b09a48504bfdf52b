"""Published comparator policies: SHADE, iCache, CoorDL, LRU baseline,
gradient-norm IS — and :data:`~repro.baselines.registry.POLICIES`, the
registry of every policy."""
