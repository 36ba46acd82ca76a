"""On-disk model repository for compiled :class:`NetworkProgram` artifacts.

Layout (one directory per model, one numeric subdirectory per version)::

    <root>/
      resnet14/
        1/ program.npz  metadata.json
        2/ program.npz  metadata.json     <- latest
      tinyconv/
        1/ program.npz  metadata.json

``program.npz`` is exactly what :func:`repro.core.export.save_program`
writes; ``metadata.json`` mirrors the artifact's embedded
:meth:`~repro.core.program.NetworkProgram.metadata` summary so listings never
open the archive.  Publishing a new version is atomic (written to a temp
directory, then renamed), and *hot-swap* falls out of the layout: resolving a
model without an explicit version always picks the highest version directory,
so a publish followed by the next request switches traffic with no restart.

Loaded programs are cached with LRU eviction (``capacity`` programs).
Eviction only drops the cache entry — a :class:`LoadedModel` held by an
in-flight request (or by a server worker pool) keeps its program alive until
released, so eviction can never corrupt running inference.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.export import (
    PROGRAM_SCHEMA_VERSION,
    load_program,
    read_program_metadata,
    retire_o3,
    save_program,
)
from repro.core.program import NetworkProgram

ARTIFACT_NAME = "program.npz"
METADATA_NAME = "metadata.json"


class ModelNotFound(KeyError):
    """No such model name (or version) in the repository."""


@dataclass
class LoadedModel:
    """A resolved (name, version) with its deserialized program."""

    name: str
    version: int
    path: Path
    program: NetworkProgram
    metadata: Dict = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, int]:
        return (self.name, self.version)


class ModelRepository:
    """Loads, caches and publishes compiled program artifacts by name/version.

    Parameters
    ----------
    root:
        Repository directory (created on first publish if missing).
    capacity:
        Maximum number of deserialized programs kept in the LRU cache.
        ``get`` on a cached (name, version) is a dict lookup; a miss pays one
        :func:`load_program` and may evict the least-recently-used entry.
    """

    def __init__(self, root: Union[str, Path], capacity: int = 4):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.root = Path(root)
        self.capacity = capacity
        self._lock = threading.Lock()
        self._cache: "OrderedDict[Tuple[str, int], LoadedModel]" = OrderedDict()
        self._staging_ids = itertools.count()
        self.loads = 0  # artifact deserializations (cache misses)
        self.evictions = 0

    # -- directory layout ------------------------------------------------------
    def _model_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid model name {name!r}")
        return self.root / name

    def versions(self, name: str) -> List[int]:
        """Published versions of ``name``, ascending (empty when unknown)."""
        model_dir = self._model_dir(name)
        if not model_dir.is_dir():
            return []
        found = []
        for entry in model_dir.iterdir():
            if entry.is_dir() and entry.name.isdigit() and (entry / ARTIFACT_NAME).exists():
                found.append(int(entry.name))
        return sorted(found)

    def list_models(self) -> Dict[str, List[int]]:
        """Every model name in the repository with its version list."""
        if not self.root.is_dir():
            return {}
        models = {}
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir():
                versions = self.versions(entry.name)
                if versions:
                    models[entry.name] = versions
        return models

    def resolve(self, name: str, version: Optional[int] = None) -> Tuple[str, int, Path]:
        """Resolve (name, version) to the artifact path; latest when ``None``."""
        versions = self.versions(name)
        if not versions:
            raise ModelNotFound(f"model '{name}' has no published versions under {self.root}")
        if version is None:
            version = versions[-1]
        elif version not in versions:
            raise ModelNotFound(
                f"model '{name}' has no version {version} (published: {versions})"
            )
        return name, version, self._model_dir(name) / str(version) / ARTIFACT_NAME

    def artifact_path(self, name: str, version: Optional[int] = None) -> Path:
        """Path of the ``.npz`` artifact for (name, version-or-latest)."""
        return self.resolve(name, version)[2]

    def metadata(self, name: str, version: Optional[int] = None) -> Dict:
        """The cheap metadata summary of a published model version.

        Always carries ``name``/``version``/``schema``/``file_bytes`` on top
        of the program summary, whether it comes from the publish-time
        sidecar or (for hand-placed version directories) from the artifact
        header, so clients see one consistent key set.
        """
        name, version, artifact = self.resolve(name, version)
        sidecar = artifact.parent / METADATA_NAME
        if sidecar.exists():
            meta = json.loads(sidecar.read_text())
            retire_o3(meta)  # sidecars published while O3 was a level
        else:
            meta = read_program_metadata(artifact)
        meta.setdefault("name", name)
        meta.setdefault("version", version)
        meta.setdefault("schema", PROGRAM_SCHEMA_VERSION)
        meta.setdefault("file_bytes", artifact.stat().st_size)
        return meta

    # -- publishing ------------------------------------------------------------
    def _stage_and_publish(
        self, name: str, version: Optional[int], metadata: Dict, write_artifact
    ) -> int:
        """Shared staging protocol of both publish paths.

        ``version`` defaults to ``latest + 1`` (1 for a new model).
        ``write_artifact(path)`` produces the archive inside a temp staging
        directory, which is then atomically renamed into place — a concurrent
        reader sees either the old latest or the complete new version, never
        a half-written one.  The (slow) artifact serialization happens
        *outside* the repository lock, so publishing a large model never
        stalls concurrent cache lookups on the serving hot path; only the
        version pick, the small metadata write, and the rename are locked.
        """
        model_dir = self._model_dir(name)
        model_dir.mkdir(parents=True, exist_ok=True)
        staging = model_dir / f".staging-{os.getpid()}-{next(self._staging_ids)}"
        staging.mkdir(parents=True, exist_ok=True)
        try:
            write_artifact(staging / ARTIFACT_NAME)  # slow; unlocked
            with self._lock:
                existing = self.versions(name)
                if version is None:
                    version = (existing[-1] + 1) if existing else 1
                elif version in existing:
                    raise FileExistsError(
                        f"model '{name}' version {version} already published; "
                        "versions are immutable (publish a new one to hot-swap)"
                    )
                meta = dict(metadata)
                meta["name"] = name
                meta["version"] = version
                meta.setdefault("schema", PROGRAM_SCHEMA_VERSION)
                meta["file_bytes"] = (staging / ARTIFACT_NAME).stat().st_size
                if "sha256" not in meta:
                    # Header-only read: the sidecar mirrors the artifact's
                    # content digest so replica sync can diff repositories
                    # without opening archives.
                    meta["sha256"] = read_program_metadata(
                        staging / ARTIFACT_NAME
                    ).get("sha256")
                (staging / METADATA_NAME).write_text(json.dumps(meta, indent=2) + "\n")
                staging.rename(model_dir / str(version))
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return version

    def publish(
        self,
        program: NetworkProgram,
        name: str,
        version: Optional[int] = None,
    ) -> int:
        """Serialize ``program`` as a new version of ``name`` and return it."""
        return self._stage_and_publish(
            name, version, program.metadata(), lambda path: save_program(program, path)
        )

    def publish_artifact(
        self, artifact: Union[str, Path], name: str, version: Optional[int] = None
    ) -> int:
        """Publish an existing ``save_program`` artifact file (copied in).

        Validates the artifact's schema first, so a bad file fails loudly at
        publish time instead of at first request.
        """
        artifact = Path(artifact)
        self._model_dir(name)  # validate the name before touching the artifact
        meta = read_program_metadata(artifact)  # raises ProgramFormatError if bad
        return self._stage_and_publish(
            name, version, meta, lambda path: shutil.copyfile(artifact, path)
        )

    # -- loading with LRU eviction ----------------------------------------------
    def get(self, name: str, version: Optional[int] = None) -> LoadedModel:
        """The deserialized program for (name, version-or-latest), LRU-cached."""
        name, version, artifact = self.resolve(name, version)
        key = (name, version)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached
        # Deserialize outside the lock: loads can be slow and concurrent
        # misses for different models should not serialize each other.
        program = load_program(artifact)
        loaded = LoadedModel(
            name=name,
            version=version,
            path=artifact,
            program=program,
            metadata=self.metadata(name, version),
        )
        with self._lock:
            self._cache[key] = loaded
            self._cache.move_to_end(key)
            self.loads += 1
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
                self.evictions += 1
        return loaded

    @property
    def cached(self) -> List[Tuple[str, int]]:
        """Cache keys, least-recently-used first."""
        with self._lock:
            return list(self._cache)

    def evict(self, name: Optional[str] = None, version: Optional[int] = None) -> int:
        """Drop cache entries (all, by name, or one version); returns count.

        Only the cache reference is dropped — callers holding a
        :class:`LoadedModel` keep a working program.
        """
        with self._lock:
            doomed = [
                key
                for key in self._cache
                if (name is None or key[0] == name)
                and (version is None or key[1] == version)
            ]
            for key in doomed:
                del self._cache[key]
            self.evictions += len(doomed)
        return len(doomed)
