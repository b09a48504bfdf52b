"""SpiderCache's contribution: graph-based importance sampling, the
semantic-aware two-layer cache, and the elastic cache manager."""

from repro.core.elastic import (
    AccuracyMonitor,
    ElasticCacheManager,
    ImportanceMonitor,
    RatioController,
)
from repro.core.graph_is import (
    BatchScores,
    GraphImportanceScorer,
    NodeScore,
    importance_score,
)
from repro.core.homophily_cache import HomophilyCache
from repro.core.importance_cache import ImportanceCache
from repro.core.policy import SpiderCachePolicy
from repro.core.sampler import MultinomialSampler
from repro.core.scores import GlobalScoreTable
from repro.core.semantic_cache import FetchSource, SemanticCache

__all__ = [
    "GraphImportanceScorer",
    "BatchScores",
    "NodeScore",
    "importance_score",
    "GlobalScoreTable",
    "ImportanceCache",
    "HomophilyCache",
    "SemanticCache",
    "FetchSource",
    "ImportanceMonitor",
    "AccuracyMonitor",
    "RatioController",
    "ElasticCacheManager",
    "MultinomialSampler",
    "SpiderCachePolicy",
]
