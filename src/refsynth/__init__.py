"""Compositional referring-expression synthesis over scene graphs.

The package builds datasets for multi-image referring-expression tasks:
it parses reasoning trees out of scene graphs, renders them as text via
templates, pairs each expression with controlled distractor images,
splits and summarizes the result, and evaluates region scorers under a
selection protocol.  A separate numeric module implements hard-negative
mining for training such scorers.
"""

from .balance import (
    DatasetStats,
    DEFAULT_SPATIAL_RELATIONS,
    RelationWeights,
    compute_stats,
    is_spatial_only,
    relation_weights,
    split,
)
from .config import PipelineConfig, load_config
from .distractor import DistractorType, TaskInstance, find_distractors, missing_counts
from .errors import (
    ConfigError,
    DataError,
    EmptyCorpus,
    EmptyInput,
    EmptyResult,
    RefsynthError,
)
from .evaluation import (
    ConstantScorer,
    EvaluationReport,
    FileScorer,
    HashRandomScorer,
    OracleScorer,
    Setting,
    SubprocessScorer,
    evaluate,
)
from .expression import (
    ExpressionRecord,
    GenerationConfig,
    Template,
    TokenRole,
    default_attribute_lexicon,
    default_templates,
    fill,
    generate,
    keep_nouns_adjectives,
    render_text,
    select_template,
    shuffle_words,
)
from .reasoning import (
    LogicForm,
    OrderSpec,
    ReasoningTree,
    TreeEdge,
    TreeNode,
    compose,
    match,
    parse_and_or,
    parse_chain,
    parse_not,
    parse_order,
    parse_same,
    tree_from_jsonable,
    tree_to_jsonable,
)
from .scene_graph import (
    BoundingBox,
    Corpus,
    ObjectNode,
    RelationEdge,
    SceneGraph,
    SynonymTable,
    load_corpus,
    load_corpus_path,
    load_synonyms,
)

__version__ = "0.1.0"

# The mining names need numpy; they are imported on first access (PEP 562)
# so that importing the package, and every CLI command but mine-demo, does
# not load it.
_MINING_NAMES = frozenset({
    "ModularEmbedding",
    "SamplingTable",
    "build_sampling_table",
    "mine_loss",
    "rank_loss",
    "sample_negatives",
    "should_refresh",
    "total_loss",
})


def __getattr__(name: str):
    if name in _MINING_NAMES:
        from . import mining

        return getattr(mining, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundingBox",
    "ConfigError",
    "ConstantScorer",
    "Corpus",
    "DEFAULT_SPATIAL_RELATIONS",
    "DataError",
    "DatasetStats",
    "DistractorType",
    "EmptyCorpus",
    "EmptyInput",
    "EmptyResult",
    "EvaluationReport",
    "ExpressionRecord",
    "FileScorer",
    "GenerationConfig",
    "HashRandomScorer",
    "LogicForm",
    "ModularEmbedding",
    "ObjectNode",
    "OracleScorer",
    "OrderSpec",
    "PipelineConfig",
    "ReasoningTree",
    "RefsynthError",
    "RelationEdge",
    "RelationWeights",
    "SamplingTable",
    "SceneGraph",
    "Setting",
    "SubprocessScorer",
    "SynonymTable",
    "TaskInstance",
    "Template",
    "TokenRole",
    "TreeEdge",
    "TreeNode",
    "build_sampling_table",
    "compose",
    "compute_stats",
    "default_attribute_lexicon",
    "default_templates",
    "evaluate",
    "fill",
    "find_distractors",
    "generate",
    "is_spatial_only",
    "keep_nouns_adjectives",
    "load_config",
    "load_corpus",
    "load_corpus_path",
    "load_synonyms",
    "match",
    "mine_loss",
    "missing_counts",
    "parse_and_or",
    "parse_chain",
    "parse_not",
    "parse_order",
    "parse_same",
    "rank_loss",
    "relation_weights",
    "render_text",
    "sample_negatives",
    "select_template",
    "should_refresh",
    "shuffle_words",
    "split",
    "total_loss",
    "tree_from_jsonable",
    "tree_to_jsonable",
]
