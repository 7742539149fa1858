"""Strict key-value configuration for the CLI.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Unknown keys are rejected so a misspelled hyperparameter cannot silently
fall back to a default. A key sets the field of the same name in its
section's dataclass, and an absent key (or file) keeps that dataclass's
default. ``bm25.profile`` picks a BM25 parameter profile, and explicit
``bm25.k1`` / ``bm25.b`` override it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import _open_text
from .crdg import CrdgConfig
from .errors import TypeMismatch, UnknownKey
from .evaluation import F_MODES
from .fusion import FUSION_MODES, FusionConfig
from .pipeline import RETRIEVER_CHOICES, InferenceConfig
from .sparse_index import BM25_PROFILES, Bm25Params


def _parse_int(key: str, raw: str, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise TypeMismatch(key, f"expected an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise TypeMismatch(key, f"must be >= {minimum}, got {value}")
    return value


def _parse_float(key: str, raw: str, minimum: float | None = None, exclusive: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise TypeMismatch(key, f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise TypeMismatch(key, f"expected a finite number, got {raw!r}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise TypeMismatch(key, f"must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            raise TypeMismatch(key, f"must be >= {minimum}, got {value}")
    return value


def _parse_choice(key: str, raw: str, choices) -> str:
    if raw not in choices:
        raise TypeMismatch(key, f"expected one of {sorted(choices)}, got {raw!r}")
    return raw


# key -> parser(raw string) -> validated value
_SCHEMA = {
    "dataset.collection": lambda k, v: v,
    "dataset.collection_format": lambda k, v: _parse_choice(k, v, ("tsv", "jsonl")),
    "dataset.train": lambda k, v: v,
    "dataset.test": lambda k, v: v,
    "dataset.qrels": lambda k, v: v,
    "bm25.profile": lambda k, v: _parse_choice(k, v, tuple(BM25_PROFILES)),
    "bm25.k1": lambda k, v: _parse_float(k, v, minimum=0.0),
    "bm25.b": lambda k, v: _parse_float(k, v, minimum=0.0),
    "crdg.early_stop": lambda k, v: _parse_int(k, v, minimum=1),
    "crdg.max_iters": lambda k, v: _parse_int(k, v, minimum=1),
    "crdg.resample_budget": lambda k, v: _parse_int(k, v, minimum=0),
    "crdg.f_mode": lambda k, v: _parse_choice(k, v, F_MODES),
    "fusion.k": lambda k, v: _parse_float(k, v, minimum=0.0, exclusive=True),
    "fusion.mode": lambda k, v: _parse_choice(k, v, FUSION_MODES),
    "fusion.depth": lambda k, v: _parse_int(k, v, minimum=1),
    "inference.max_iters": lambda k, v: _parse_int(k, v, minimum=1),
    "inference.retrieval_k": lambda k, v: _parse_int(k, v, minimum=1),
    "inference.retriever": lambda k, v: _parse_choice(k, v, RETRIEVER_CHOICES),
    "dense.dim": lambda k, v: _parse_int(k, v, minimum=1),
    "gen.temperature": lambda k, v: _parse_float(k, v, minimum=0.0),
}


@dataclass
class Config:
    collection: str | None = None
    collection_format: str | None = None
    train: str | None = None
    test: str | None = None
    qrels: str | None = None
    bm25: Bm25Params = field(default_factory=Bm25Params)
    crdg: CrdgConfig = field(default_factory=CrdgConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    dense_dim: int = 256
    gen_temperature: float = 0.7
    #: raw key -> value snapshot, recorded in run manifests
    raw: dict = field(default_factory=dict)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise TypeMismatch(f"{source}:{line_no}", f"expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise UnknownKey(key)
        values[key] = _SCHEMA[key](key, raw)
    return values


# Sections built from their own keys: ``crdg.early_stop`` sets
# ``CrdgConfig.early_stop``, and an absent key keeps the dataclass default.
_SECTIONS = {"crdg": CrdgConfig, "fusion": FusionConfig, "inference": InferenceConfig}


def resolve_config(values: dict) -> Config:
    profile = BM25_PROFILES[values["bm25.profile"]] if "bm25.profile" in values else Bm25Params()
    try:
        bm25 = Bm25Params(k1=values.get("bm25.k1", profile.k1), b=values.get("bm25.b", profile.b))
    except ValueError as e:
        raise TypeMismatch("bm25.b", str(e)) from None
    sections: dict = {name: {} for name in _SECTIONS}
    fields: dict = {"bm25": bm25, "raw": dict(values)}
    for key, value in values.items():
        section, name = key.split(".", 1)
        if section in sections:
            sections[section][name] = value
        elif section != "bm25":  # dataset.train -> train, dense.dim -> dense_dim
            fields[name if section == "dataset" else f"{section}_{name}"] = value
    cfg = Config(**fields, **{name: cls(**sections[name]) for name, cls in _SECTIONS.items()})
    cfg.inference.fusion = cfg.fusion
    return cfg


def load_config(path: str | None) -> Config:
    """Load and validate a config file; None gives all defaults."""
    if path is None:
        return resolve_config({})
    with _open_text(path) as fh:
        text = fh.read()
    return resolve_config(parse_config_text(text, source=str(path)))
