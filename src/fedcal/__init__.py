"""fedcal: deterministic federated graph-learning simulator.

Clients holding private subgraphs train small node classifiers whose
ego-embeddings are calibrated against server-side semantic anchors (a
simplex equiangular tight frame) and structural templates; the server
refines both global manifolds every round from uploaded statistics.
"""

from .fedsim import (
    DatasetSpec,
    FederationConfig,
    FederationResult,
    evaluate,
    run_federation,
)
from .graph import Graph
from .refine import RefineConfig
from .semantic import construct_etf

__all__ = [
    "DatasetSpec",
    "FederationConfig",
    "FederationResult",
    "Graph",
    "RefineConfig",
    "construct_etf",
    "evaluate",
    "run_federation",
]

__version__ = "0.1.0"
