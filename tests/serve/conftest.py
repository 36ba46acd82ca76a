"""Shared fixtures for the serving tests.

One small compressed model is calibrated and compiled once per session; every
test builds its own throwaway :class:`ModelRepository` from the saved artifact
(an artifact copy is cheap, and repositories are mutated by publish/hot-swap
tests, so sharing one would couple test order).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    NetworkProgram,
    compress_model,
    save_program,
)
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset
from repro.serve import ModelRepository


@dataclass
class ServedModel:
    """The session's compiled model: engine, programs, artifact, test data."""

    engine: BitSerialInferenceEngine
    program: NetworkProgram  # optimized
    program_unoptimized: NetworkProgram
    artifact: Path  # save_program(program)
    batch: np.ndarray  # (N, 3, 32, 32) held-out samples
    expected: np.ndarray  # engine.predict(batch)

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return tuple(self.program.input_shape)


@pytest.fixture(scope="session")
def served(tmp_path_factory) -> ServedModel:
    model = create_model("resnet_s_tiny", num_classes=10, in_channels=3, rng=0)
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=0,
    )
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(32, 3, 32, 32))
    targets = rng.integers(0, 10, size=32)
    loader = DataLoader(ArrayDataset(inputs, targets), batch_size=16)
    engine = BitSerialInferenceEngine(
        result.model, result.pool, EngineConfig(lut_bitwidth=8, calibration_batches=2)
    )
    engine.calibrate(loader)
    program = engine.compile(level="O2")
    artifact = tmp_path_factory.mktemp("artifact") / "resnet_s.npz"
    save_program(program, artifact)
    batch = rng.normal(size=(12, 3, 32, 32))
    return ServedModel(
        engine=engine,
        program=program,
        program_unoptimized=engine.compile(level="O0"),
        artifact=artifact,
        batch=batch,
        expected=engine.predict(batch),
    )


@pytest.fixture()
def repo(tmp_path, served) -> ModelRepository:
    """A fresh repository with the session model published as resnet_s v1."""
    repository = ModelRepository(tmp_path / "repo", capacity=4)
    repository.publish_artifact(served.artifact, "resnet_s")
    return repository


# ---------------------------------------------------------------------------
# Sleep lint: the simulation suites must stay wall-clock free
# ---------------------------------------------------------------------------
# Files written before the sim-clock harness existed; they poll real worker
# processes / breaker reset windows and may keep their sleeps.  Everything
# newer drives time through tests/serve/simclock.py — a ``time.sleep`` there
# silently re-couples virtual and wall time, so this lint fails the suite
# the moment one appears.  Do NOT add files to this list; port them.
_SLEEP_ALLOWED = {"test_faults.py", "test_server.py", "test_batcher.py"}


@pytest.fixture(scope="session", autouse=True)
def _no_wall_clock_sleeps_in_sim_tests():
    """Fail the serve suite if a sim-clock test file grows a real sleep."""
    here = Path(__file__).parent
    offenders = []
    for path in sorted(here.glob("test_*.py")) + [here / "simclock.py"]:
        if path.name in _SLEEP_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("#", 1)[0]
            if "time.sleep" in code or "from time import sleep" in code:
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, (
        "wall-clock sleeps in simulation-clock test files (drive time with "
        "SimClock.advance() instead):\n" + "\n".join(offenders)
    )
