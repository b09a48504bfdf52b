"""SpiderCache's contribution: graph-based importance sampling, the
semantic-aware two-layer cache, and the elastic cache manager."""
