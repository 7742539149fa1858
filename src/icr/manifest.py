"""Run manifests for reproducibility.

Every CLI invocation writes a JSON manifest beside its primary output
recording the command, its arguments, the resolved config snapshot, the
seed, a git describe string, start/end timestamps, and SHA-256 digests of
every input and output file. Reruns with the same seed, config, and inputs must
produce identical output digests.

Each output's digest comes with a stat record: the ``(dev, ino, size,
mtime_ns, ctime_ns)`` of each of its files and the time the hash ended.
A later command that reads the file as an input reuses the digest from
that manifest (``<input>.manifest.json``) when every file still has its
recorded stat and its ctime is at least ``RACY_MARGIN_NS`` older than the
hash's end; otherwise it hashes the input. ``ctime`` cannot be set by
``os.utime``, so a rewrite that restores ``mtime`` is still caught. A
manifest is a provenance record, not a tamper check: ``verify_outputs``
re-hashes without the stat records.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from datetime import datetime, timezone

from .corpus import replacing
from .errors import DataError


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# A file changed in the same timestamp tick as its hash's end could change
# again within that tick and keep its stat (git's "racily clean" entries,
# Documentation/technical/racy-git.txt). Linux stamps files from a clock
# that moves once a tick, 10 ms at HZ=100, its coarsest setting. So a change
# after the hash gets a ctime later than the hash's end less 10 ms, which is
# later than any ctime at least that much older than the hash's end. Files
# on filesystems with coarser stamps (FAT, some network mounts) are not
# covered: ``icr verify`` is the full check.
RACY_MARGIN_NS = 10_000_000


def _names(path: str) -> list[str]:
    """A directory's files relative to it, in hashing order; ``["."]`` for a file."""
    if not os.path.isdir(path):
        return ["."]
    return [
        os.path.relpath(os.path.join(root, name), path)
        for root, _, files in sorted(os.walk(path))
        for name in sorted(files)
    ]


def _digest(path: str, names: list[str]) -> str:
    if names == ["."]:
        return file_digest(path)
    h = hashlib.sha256()
    for rel in names:
        h.update(rel.encode("utf-8"))
        h.update(file_digest(os.path.join(path, rel)).encode("ascii"))
    return h.hexdigest()


def tree_digest(path: str) -> str:
    """Digest of a file, or of a directory's files keyed by relative path."""
    return _digest(path, _names(path))


def _stats(path: str, names: list[str]) -> dict[str, list[int]]:
    out = {}
    for rel in names:
        st = os.stat(path if rel == "." else os.path.join(path, rel))
        out[rel] = [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]
    return out


def _hash_output(path: str) -> tuple[str, dict | None]:
    """The digest of ``path`` and its stat record, or None when a file
    changed while it was hashed."""
    names = _names(path)
    before = _stats(path, names)
    digest = _digest(path, names)
    hashed_at_ns = time.time_ns()
    if _names(path) != names or _stats(path, names) != before:
        return digest, None
    return digest, {"hashed_at_ns": hashed_at_ns, "files": before}


def _recorded_digest(path: str) -> str | None:
    """The digest that the manifest beside ``path`` records for it, if its
    files still have the recorded stat and none changed within
    ``RACY_MARGIN_NS`` of the hash's end."""
    try:
        manifest = load_manifest(path.rstrip("/") + ".manifest.json")
        current = _stats(path, _names(path))
        for out, record in manifest["output_stats"].items():
            hashed_at_ns = record["hashed_at_ns"]
            if record["files"] == current and all(
                hashed_at_ns - st[4] >= RACY_MARGIN_NS for st in current.values()
            ):
                return manifest["outputs"][out]
    except (OSError, DataError, KeyError, TypeError, AttributeError):
        pass
    return None


def git_describe(cwd: str | None = None) -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunManifest:
    """Collects inputs/outputs during a command and writes the manifest."""

    def __init__(self, command: str, config_snapshot: dict | None = None, seed: int | None = None,
                 argv: list[str] | None = None):
        self.command = command
        self.config_snapshot = dict(config_snapshot or {})
        self.seed = seed
        #: the command line, which holds the flags that override the config
        self.argv = list(argv or [])
        self.started_at = _now()
        self.inputs: list[str] = []
        self.outputs: list[str] = []

    def add_input(self, path: str | None) -> None:
        if path and path not in self.inputs:
            self.inputs.append(path)

    def add_output(self, path: str | None) -> None:
        if path and path not in self.outputs:
            self.outputs.append(path)

    def write(self, path: str | None = None) -> str:
        """Write beside the primary output (``<output>.manifest.json``)."""
        if path is None:
            if not self.outputs:
                raise ValueError("manifest has no outputs to sit beside")
            path = self.outputs[0] + ".manifest.json"
        payload = {
            "command": self.command,
            "argv": self.argv,
            "seed": self.seed,
            "git": git_describe(),
            "started_at": self.started_at,
            "finished_at": _now(),
            "config": self.config_snapshot,
            "inputs": {p: _recorded_digest(p) or tree_digest(p) for p in self.inputs},
        }
        # outputs are hashed last, which leaves them the longest to settle
        # before the hash ends (see RACY_MARGIN_NS)
        hashed = {p: _hash_output(p) for p in self.outputs}
        payload["outputs"] = {p: digest for p, (digest, _) in hashed.items()}
        payload["output_stats"] = {p: record for p, (_, record) in hashed.items() if record is not None}
        with replacing(path) as temp, open(temp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_manifest(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as e:
            raise DataError(f"{path}: not a run manifest ({e})") from e
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: not a run manifest")
    for section in ("inputs", "outputs"):
        if not isinstance(manifest.get(section, {}), dict):
            raise DataError(f"{path}: not a run manifest ({section!r} is not an object)")
    return manifest


def verify_outputs(manifest: dict, section: str = "outputs") -> dict[str, bool]:
    """Re-hash every file of a manifest section ("outputs" or "inputs"),
    ignoring stat records; False flags a changed or missing file."""
    out = {}
    for path, digest in manifest.get(section, {}).items():
        try:
            out[path] = tree_digest(path) == digest
        except OSError:
            out[path] = False
    return out
