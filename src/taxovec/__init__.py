"""Dense node embeddings that approximate taxonomy graph similarity measures.

Pipeline: load a taxonomy (`graph`), score node pairs with a similarity
measure (`metrics`), build a pruned normalized training set (`dataset`),
fit an embedding matrix against it (`trainer`), then evaluate by rank
correlation (`evaluation`), word sense disambiguation (`wsd`), or
one-vs-all query speed (`bench`). The `taxovec` CLI exposes each stage.
"""

from .bench import BenchReport, BenchResult, one_vs_all_dot, one_vs_all_graph, run_benchmark
from .dataset import (
    DatasetBuild,
    DatasetConfig,
    Pairs,
    build_fast,
    build_full,
    read_pairs,
    write_pairs,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateRangeError,
    EmptyDatasetError,
    NumericError,
    RecordError,
    StructuralError,
    TaxovecError,
    UnknownNodeError,
)
from .evaluation import (
    EvalReport,
    LemmaPairRecord,
    MeasureScorer,
    dynamic_selection,
    evaluate,
    spearman,
    static_selection,
)
from .graph import (
    DepthIndex,
    TaxonomyGraph,
    compute_depths,
    load_edge_list,
    shortest_path_length,
)
from .manifest import artifact_version, read_manifest, write_manifest
from .metrics import (
    MEASURES,
    InformationContentTable,
    SimilarityRows,
    load_raw_counts,
    pair_similarity,
    propagate_counts,
)
from .trainer import (
    Batch,
    EmbeddingMatrix,
    ModelScorer,
    TrainConfig,
    batch_gradients,
    load_embeddings,
    make_batches,
    save_embeddings,
    score,
    train,
)
from .wsd import (
    SentenceInstance,
    WsdConfig,
    disambiguate,
    disambiguate_sweep,
    micro_f1,
    random_sense_baseline,
)

__version__ = artifact_version()

__all__ = [
    "BenchReport",
    "BenchResult",
    "Batch",
    "ConfigError",
    "DataError",
    "DatasetBuild",
    "DatasetConfig",
    "DegenerateRangeError",
    "DepthIndex",
    "EmbeddingMatrix",
    "EmptyDatasetError",
    "EvalReport",
    "InformationContentTable",
    "LemmaPairRecord",
    "MEASURES",
    "MeasureScorer",
    "ModelScorer",
    "NumericError",
    "Pairs",
    "RecordError",
    "SentenceInstance",
    "SimilarityRows",
    "StructuralError",
    "TaxonomyGraph",
    "TaxovecError",
    "TrainConfig",
    "UnknownNodeError",
    "WsdConfig",
    "artifact_version",
    "batch_gradients",
    "build_fast",
    "build_full",
    "compute_depths",
    "disambiguate",
    "disambiguate_sweep",
    "dynamic_selection",
    "evaluate",
    "load_edge_list",
    "load_embeddings",
    "load_raw_counts",
    "make_batches",
    "micro_f1",
    "one_vs_all_dot",
    "one_vs_all_graph",
    "pair_similarity",
    "propagate_counts",
    "random_sense_baseline",
    "read_manifest",
    "read_pairs",
    "run_benchmark",
    "save_embeddings",
    "score",
    "shortest_path_length",
    "spearman",
    "static_selection",
    "train",
    "write_manifest",
    "write_pairs",
]
