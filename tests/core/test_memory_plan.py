"""Property tests for the ahead-of-time execution planner.

The contract under test: the arena + fused + sharded executor produces
**bitwise identical** outputs to the step interpreter running the same
graph passes (the ``O1`` program, same tile), for every shard count,
including ragged final tiles — and tracks the ``O0`` reference oracle
within the documented optimization tolerance.  The arena
layout itself is validated structurally: no two simultaneously-live
storages may share bytes (the aliasing regression a bad planner would hit
on overlapping lifetimes, e.g. residual shortcuts held across a block).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    PlanUnsupported,
    compile_network,
    compress_model,
    load_program,
    save_program,
    validate_arena_plan,
)
from repro.core.memory_plan import ArenaSlot
from repro.mcu import build_source_bundle
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset


def _loader(seed=0, n=32, channels=3):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, channels, 32, 32))
    targets = rng.integers(0, 10, size=n)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


@pytest.fixture(scope="module", params=["resnet14_tiny", "mobilenetv2_tiny"])
def planned_engine(request):
    model = create_model(request.param, num_classes=10, in_channels=3, rng=0)
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=0,
    )
    engine = BitSerialInferenceEngine(
        result.model,
        result.pool,
        EngineConfig(activation_bitwidth=8, lut_bitwidth=8, calibration_batches=2),
    )
    engine.calibrate(_loader())
    return engine


def _interpreted(engine, **kwargs):
    """The step interpreter on the O1 program: the O2 graph passes, no plan."""
    executor = Executor(engine.compile(level="O1"), **kwargs)
    assert executor.exec_plan is None
    return executor


class TestBitExactness:
    """Arena + fused + sharded output must equal the interpreter's."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_matches_interpreter_bitwise(self, planned_engine, n_shards):
        program = planned_engine.compile(level="O2")
        x = np.random.default_rng(1).normal(size=(13, 3, 32, 32))
        interpreted = _interpreted(planned_engine, tile=4).run(x)
        planned = Executor(program, n_shards=n_shards, tile=4)
        # 13 samples over tile 4 → three full tiles and a ragged final one,
        # split across shards on whole-tile boundaries.
        np.testing.assert_array_equal(planned.run(x), interpreted)
        # Arenas and scratch are reused, never re-derived: run twice.
        np.testing.assert_array_equal(planned.run(x), interpreted)

    def test_default_executors_agree(self, planned_engine):
        program = planned_engine.compile(level="O2")
        x = np.random.default_rng(2).normal(size=(16, 3, 32, 32))
        interpreted = _interpreted(planned_engine)
        planned = Executor(program)
        assert planned.exec_plan is not None, "O2 plan programs plan by default"
        np.testing.assert_array_equal(planned.run(x), interpreted.run(x))

    def test_single_sample_and_empty_batches(self, planned_engine):
        program = planned_engine.compile(level="O2")
        planned = Executor(program, n_shards=2, tile=4)
        interpreted = _interpreted(planned_engine, tile=4)
        one = np.random.default_rng(3).normal(size=(1, 3, 32, 32))
        np.testing.assert_array_equal(planned.run(one), interpreted.run(one))
        empty = planned.run(np.empty((0, 3, 32, 32)))
        assert empty.shape == (0, 10)

    def test_tracks_reference_backend_predictions(self, planned_engine):
        """The whole planned stack against the tap-loop oracle: identical
        predictions, logits within the documented optimization tolerance."""
        program = planned_engine.compile(level="O2")
        x = np.random.default_rng(4).normal(size=(8, 3, 32, 32))
        planned = Executor(program, n_shards=2, tile=4).run(x)
        oracle = Executor(planned_engine.compile(level="O0"), backend="reference")
        reference = oracle.run(x)
        scale = max(float(np.abs(reference).max()), 1e-12)
        assert np.abs(planned - reference).max() < 1e-9 * scale
        np.testing.assert_array_equal(
            planned.argmax(axis=1), reference.argmax(axis=1)
        )

    def test_evaluate_accuracy_identical(self, planned_engine):
        program = planned_engine.compile(level="O2")
        loader = _loader(seed=7, n=48)
        interpreted_acc = _interpreted(planned_engine).evaluate(loader)
        planned_acc = Executor(program, n_shards=2).evaluate(loader)
        assert interpreted_acc == planned_acc


class TestArenaPlan:
    def test_no_live_overlap_on_residual_networks(self, planned_engine):
        """Overlapping-lifetime regression: residual shortcuts keep a buffer
        live across a whole block — simultaneously-live storages must never
        share arena bytes (validate_arena_plan raises on bad aliasing)."""
        executor = Executor(planned_engine.compile(level="O2"))
        plan = executor.exec_plan
        validate_arena_plan(plan)
        # The planner found some reuse: the arena is smaller than the sum of
        # every storage's slot (lifetimes are disjoint somewhere).
        total = sum(s.nbytes for s in plan.slots.values() if s.reused_from is None)
        assert plan.arena_bytes <= total

    def test_validator_catches_bad_aliasing(self, planned_engine):
        executor = Executor(planned_engine.compile(level="O2"))
        plan = executor.exec_plan
        # Corrupt the plan: force two live storages onto the same offset.
        live = [
            (sid, slot) for sid, slot in plan.slots.items() if slot.reused_from is None
        ]
        (sid_a, a), (sid_b, b) = live[0], live[1]
        bad = dict(plan.slots)
        bad[sid_b] = ArenaSlot(
            offset=a.offset, nbytes=b.nbytes,
            first_def=a.first_def, last_use=a.last_use,
        )
        corrupted = replace(plan, slots=bad)
        with pytest.raises(AssertionError, match="aliases live storages"):
            validate_arena_plan(corrupted)

    def test_counters_reported_in_metadata(self, planned_engine):
        program = planned_engine.compile(level="O2")
        executor = Executor(program, n_shards=3)
        info = executor.plan_info
        assert info["arena_bytes"] > 0
        assert info["steps_fused"] > 0
        assert info["steps"] < info["ops"]
        assert info["n_shards"] == 3
        meta = program.metadata()
        assert meta["execution_plan"]["arena_bytes"] == info["arena_bytes"]
        assert meta["execution_plan"]["steps_fused"] == info["steps_fused"]

class TestFallbacks:
    def test_unoptimized_and_reference_programs_run_interpreted(self, planned_engine):
        unoptimized = planned_engine.compile(level="O0")
        assert Executor(unoptimized).exec_plan is None
        optimized = planned_engine.compile(level="O2")
        assert Executor(optimized, backend="reference").exec_plan is None

    def test_structural_program_cannot_be_planned(self, compressed_small_model):
        program = compile_network(compressed_small_model.model, (3, 32, 32))
        with pytest.raises(RuntimeError):
            Executor(program, backend="plan")

    def test_source_bundle_of_an_unplanned_program_raises(self, planned_engine):
        with pytest.raises(PlanUnsupported, match="O1"):
            build_source_bundle(planned_engine.compile(level="O1"))

    def test_active_bits_flow_through_the_plan(self, planned_engine):
        program = planned_engine.compile(level="O2")
        full = Executor(program)
        truncated = Executor(program, active_bits=4)
        x = np.random.default_rng(6).normal(size=(4, 3, 32, 32))
        assert not np.allclose(full.run(x), truncated.run(x))


class TestSerializedPrograms:
    def test_loaded_program_plans_and_matches(self, planned_engine, tmp_path):
        """Plans survive save/load: a loaded artifact re-plans from the IR
        and executes bitwise-identically to the original planned executor."""
        program = planned_engine.compile(level="O2")
        x = np.random.default_rng(8).normal(size=(10, 3, 32, 32))
        expected = Executor(program, n_shards=2, tile=4).run(x)
        path = tmp_path / "program.npz"
        save_program(program, path)
        loaded = load_program(path)
        loaded_exec = Executor(loaded, n_shards=2, tile=4)
        assert loaded_exec.exec_plan is not None
        np.testing.assert_array_equal(loaded_exec.run(x), expected)

    def test_saved_metadata_carries_plan_counters(self, planned_engine, tmp_path):
        from repro.core import read_program_metadata

        program = planned_engine.compile(level="O2")
        Executor(program)  # attaches plan counters to the program
        path = tmp_path / "program.npz"
        save_program(program, path)
        meta = read_program_metadata(path)
        assert meta["execution_plan"]["arena_bytes"] > 0
