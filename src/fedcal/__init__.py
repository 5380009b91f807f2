"""fedcal: deterministic federated graph-learning simulator.

Clients holding private subgraphs train small node classifiers whose
ego-embeddings are calibrated against server-side semantic anchors (a
simplex equiangular tight frame) and structural templates; the server
refines both global manifolds every round from uploaded statistics.
"""

from .fedsim import (
    FederationConfig,
    FederationResult,
    evaluate,
    run_federation,
)
from .graph import Graph
from .refine import construct_etf, init_templates

__all__ = [
    "FederationConfig",
    "FederationResult",
    "Graph",
    "construct_etf",
    "evaluate",
    "init_templates",
    "run_federation",
]

__version__ = "0.1.0"
