"""Discriminative temporal graph pattern mining and behavior query evaluation.

The package mines the most discriminative T-connected temporal patterns from
positive/negative sets of labeled temporal graphs, and evaluates the mined
patterns as behavior queries against large temporal graphs with
precision/recall reporting.
"""

from .graphs import (
    DanglingEndpoint,
    DuplicateTimestamp,
    Embedding,
    EmptyLabel,
    GraphError,
    NotTConnected,
    SelfLoop,
    TemporalGraph,
    TemporalPattern,
    canonical_pattern,
    is_t_connected,
    validate,
    verify_embedding,
)
from .sequences import find_embeddings, temporal_subgraph_test
from .growth import (
    EmbeddingTable,
    empty_pattern,
    empty_table,
    table_entries,
)
from .pruning import (
    PatternRegistry,
    ResidualSignature,
    residual_signature,
    score_upper_bound,
    signatures_equivalent,
    subgraph_prune_check,
    supergraph_prune_check,
)
from .scoring import (
    GTest,
    InfoGain,
    InterestModel,
    LogRatio,
    ScoredPattern,
    interest,
    load_blacklist,
    make_score_function,
    rank,
)
from .miner import ConfigInvalid, EmptyDataset, MiningConfig, MiningResult, MiningStats, mine
from .matcher import GroundTruth, Instance, evaluate, find_instances, load_ground_truth
from .datakit import (
    ParseError,
    SpecInvalid,
    SyntheticSpec,
    TieRejected,
    generate_synthetic,
    load_dataset,
    preset_spec,
    save_dataset,
)

__version__ = "0.1.0"
