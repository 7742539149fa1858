"""Iterative clarification-and-rewriting toolkit for conversational search.

The public names load with their module on first use (PEP 562), so
``import icr`` loads no submodule, and numpy only with a name that needs it.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("CQRSample", "Passage", "Qrels", "Turn"), "corpus"),
    **dict.fromkeys(("Bm25Params", "CrdgConfig", "FusionConfig", "InferenceConfig"), "config"),
    **dict.fromkeys(("Trajectory", "TrajectoryStep", "generate_trajectory"), "crdg"),
    **dict.fromkeys(("DenseIndex", "HashEmbeddingProvider", "build_dense_index", "search_dense"), "dense_index"),
    **dict.fromkeys(("Indexes", "MetricSet", "QualityScore", "f_score"), "evaluation"),
    "fuse": "fusion",
    **dict.fromkeys(("RemoteChatClient", "ScriptedMock"), "genclient"),
    **dict.fromkeys(("InferenceResult", "run_batch"), "pipeline"),
    "PreferencePair": "prefdata",
    "RankedList": "ranking",
    **dict.fromkeys(("SparseIndex", "build_sparse_index", "search_sparse", "tokenize"), "sparse_index"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
