"""Every setting, and the strict key-value configuration file.

Each setting is defined once, as a ``Setting``: its type and its bounds or
choices. A settings dataclass checks its fields with it, a config key
parses with it, and so does a CLI flag that overrides a key (``icr fuse
--k``/``--depth``). This module imports no numpy, so a command reads its
settings before it loads the code it runs.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Unknown keys are rejected, and so is a key given twice, so a misspelled
hyperparameter cannot silently fall back to a default. A key sets the
field of the same name in its section's dataclass, and an absent key (or
file) keeps that dataclass's default. ``bm25.profile`` picks a BM25
parameter profile, and explicit ``bm25.k1`` / ``bm25.b`` override it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .corpus import _open_text
from .errors import MalformedRecord, TypeMismatch, UnknownKey

#: (uses sparse, uses dense) for each F mode and each inference retriever.
MODE_RETRIEVERS = {
    "both": (True, True), "sparse_only": (True, False), "dense_only": (False, True),  # F modes
    "sparse": (True, False), "dense": (False, True), "both-report": (True, True),  # inference
}
F_MODES, RETRIEVER_CHOICES = tuple(MODE_RETRIEVERS)[:3], tuple(MODE_RETRIEVERS)[3:]
FUSION_MODES = ("rrf", "prrf", "final_only")


@dataclass(frozen=True)
class Setting:
    """A setting's type (``str``, ``int`` or ``float``; a float must be
    finite) and its bounds or choices."""

    kind: type = str
    minimum: float | None = None
    exclusive: bool = False  # the minimum itself is out of bounds
    maximum: float | None = None
    choices: tuple[str, ...] = ()

    def parse(self, raw: str):
        """The value ``raw`` spells; a ValueError says what is wrong."""
        try:
            value = self.kind(raw)
        except ValueError:
            raise ValueError(f"expected {'an integer' if self.kind is int else 'a number'}, got {raw!r}") from None
        return self.check(value, raw)

    def check(self, value, raw: str | None = None):
        """``value`` if it is in bounds; a ValueError shows ``raw``, the text
        it was parsed from, where there is one."""
        if self.choices and value not in self.choices:
            raise ValueError(f"expected one of {sorted(self.choices)}, got {value!r}")
        if self.kind is float and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value if raw is None else raw!r}")
        if self.minimum is not None and (value <= self.minimum if self.exclusive else value < self.minimum):
            raise ValueError(f"must be {'>' if self.exclusive else '>='} {self.minimum}, got {value}")
        if self.maximum is not None and value > self.maximum:
            raise ValueError(f"must be <= {self.maximum}, got {value}")
        return value


def _setting(default, kind: type = str, **bounds):
    """A settings dataclass field with its ``Setting``."""
    return field(default=default, metadata={"setting": Setting(kind, **bounds)})


class _Checked:
    """A settings dataclass; each field with a ``Setting`` is checked when
    it is built, and a ValueError names the first one out of bounds."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if "setting" in f.metadata:
                try:
                    f.metadata["setting"].check(getattr(self, f.name))
                except ValueError as e:
                    raise ValueError(f"{type(self).__name__}.{f.name}: {e}") from None


@dataclass(frozen=True)
class Bm25Params(_Checked):
    k1: float = _setting(0.9, float, minimum=0.0)
    b: float = _setting(0.4, float, minimum=0.0, maximum=1.0)


#: Per-dataset parameter profiles.
BM25_PROFILES = {
    "topiocqa": Bm25Params(k1=0.9, b=0.4),
    "qrecc": Bm25Params(k1=0.82, b=0.68),
}


@dataclass
class CrdgConfig(_Checked):
    early_stop: int = _setting(3, int, minimum=1)
    max_iters: int = _setting(10, int, minimum=1)
    resample_budget: int = _setting(3, int, minimum=0)
    f_mode: str = _setting("both", choices=F_MODES)


@dataclass
class FusionConfig(_Checked):
    k: float = _setting(60.0, float, minimum=0.0, exclusive=True)
    mode: str = _setting("prrf", choices=FUSION_MODES)
    depth: int = _setting(100, int, minimum=1)


@dataclass
class InferenceConfig(_Checked):
    max_iters: int = _setting(10, int, minimum=1)
    retrieval_k: int = _setting(100, int, minimum=1)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    retriever: str = _setting("sparse", choices=RETRIEVER_CHOICES)
    step_wise: bool = False


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


# Sections built from their own keys: ``crdg.early_stop`` sets
# ``CrdgConfig.early_stop``, and an absent key keeps the dataclass default.
_SECTIONS = {"crdg": CrdgConfig, "fusion": FusionConfig, "inference": InferenceConfig}

# key -> its Setting; the keys of Config's own fields come first
_SCHEMA = {
    "dataset.collection": Setting(),
    "dataset.collection_format": Setting(choices=("tsv", "jsonl")),
    "dataset.train": Setting(),
    "dataset.test": Setting(),
    "dataset.qrels": Setting(),
    "dense.dim": Setting(int, minimum=1),
    "gen.temperature": Setting(float, minimum=0.0),
    "bm25.profile": Setting(choices=tuple(BM25_PROFILES)),
    **{
        f"{section}.{f.name}": f.metadata["setting"]
        for section, cls in {"bm25": Bm25Params, **_SECTIONS}.items()
        for f in fields(cls)
        if "setting" in f.metadata
    },
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict = {}
    lines: dict = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise TypeMismatch(f"{source}:{line_no}", f"expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise UnknownKey(key)
        if key in lines:
            raise MalformedRecord(source, line_no, f"config key {key!r} repeats line {lines[key]}")
        try:
            values[key] = _SCHEMA[key].parse(raw)
        except ValueError as e:
            raise TypeMismatch(key, str(e)) from None
        lines[key] = line_no
    return values


def resolve_config(values: dict) -> Config:
    profile = BM25_PROFILES[values["bm25.profile"]] if "bm25.profile" in values else Bm25Params()
    bm25 = Bm25Params(k1=values.get("bm25.k1", profile.k1), b=values.get("bm25.b", profile.b))
    sections: dict = {name: {} for name in _SECTIONS}
    own: dict = {"bm25": bm25, "raw": dict(values)}
    for key, value in values.items():
        section, name = key.split(".", 1)
        if section in sections:
            sections[section][name] = value
        elif section != "bm25":  # dataset.train -> train, dense.dim -> dense_dim
            own[name if section == "dataset" else f"{section}_{name}"] = value
    cfg = Config(**own, **{name: cls(**sections[name]) for name, cls in _SECTIONS.items()})
    cfg.inference.fusion = cfg.fusion
    return cfg


def load_config(path: str | None) -> Config:
    """Load and validate a config file; None gives all defaults."""
    if path is None:
        return resolve_config({})
    with _open_text(path) as fh:
        text = fh.read()
    return resolve_config(parse_config_text(text, source=str(path)))
