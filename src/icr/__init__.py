"""Iterative clarification-and-rewriting toolkit for conversational search."""

__version__ = "0.1.0"

from .corpus import CQRSample, Passage, Qrels, Turn
from .crdg import CrdgConfig, Trajectory, TrajectoryStep, generate_trajectory
from .dense_index import DenseIndex, HashEmbeddingProvider, build_dense_index, search_dense
from .evaluation import Indexes, MetricSet, QualityScore, f_score
from .fusion import FusionConfig, fuse
from .genclient import RemoteChatClient, ScriptedMock
from .pipeline import InferenceConfig, InferenceResult, run_batch
from .prefdata import PreferencePair
from .ranking import RankedList
from .sparse_index import Bm25Params, SparseIndex, build_sparse_index, search_sparse, tokenize

__all__ = [
    "Bm25Params",
    "CQRSample",
    "CrdgConfig",
    "DenseIndex",
    "FusionConfig",
    "HashEmbeddingProvider",
    "Indexes",
    "InferenceConfig",
    "InferenceResult",
    "MetricSet",
    "Passage",
    "PreferencePair",
    "Qrels",
    "QualityScore",
    "RankedList",
    "RemoteChatClient",
    "ScriptedMock",
    "SparseIndex",
    "Trajectory",
    "TrajectoryStep",
    "Turn",
    "build_dense_index",
    "build_sparse_index",
    "f_score",
    "fuse",
    "generate_trajectory",
    "run_batch",
    "search_dense",
    "search_sparse",
    "tokenize",
]
