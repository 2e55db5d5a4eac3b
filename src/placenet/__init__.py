"""placenet: fingerprinting and comparison of social-place friendship networks."""

from placenet.features import (
    DEFAULT_K_SET,
    ConvergenceError,
    FeatureVector,
    compute_features,
    feature_names,
)
from placenet.forest import (
    CvResult,
    Dataset,
    Forest,
    ForestParams,
    cross_validated_auc,
    roc_auc,
    train_random_forest,
)
from placenet.graph import (
    Graph,
    GraphParseError,
    bfs_distances,
    connected_components,
    largest_connected_component,
    parse_edge_list,
    serialize_edge_list,
)
from placenet.similarity import (
    AucMatrix,
    Ensemble,
    auc_matrix,
    global_importance_ranking,
    representative_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AucMatrix",
    "ConvergenceError",
    "CvResult",
    "Dataset",
    "DEFAULT_K_SET",
    "Ensemble",
    "FeatureVector",
    "Forest",
    "ForestParams",
    "Graph",
    "GraphParseError",
    "auc_matrix",
    "bfs_distances",
    "compute_features",
    "connected_components",
    "cross_validated_auc",
    "feature_names",
    "global_importance_ranking",
    "largest_connected_component",
    "parse_edge_list",
    "representative_graph",
    "roc_auc",
    "serialize_edge_list",
    "train_random_forest",
]
