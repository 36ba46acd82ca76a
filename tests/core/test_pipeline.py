"""Tests for the pass-manager compiler pipeline.

Covers the pipeline's contracts end to end:

* the registry (every documented pass registered at its stage/level) and the
  level/pass-name validation (unknown names fail loudly, listing choices);
* the IR verifier (valid programs pass; corrupted SSA / shapes / dtypes /
  epilogue claims fail naming the op);
* pass idempotency (running any registered graph pass twice changes
  nothing);
* optimization-level equivalence — ``O0``–``O2`` and ``O4`` programs
  produce identical predictions on ResNet-14 and match the ``O0``
  reference oracle;
* the planned schedule — the heuristic tile and per-core shards unless
  the caller pins them;
* MobileNetV2 compiled end-to-end through the pipeline (depthwise/grouped
  conv lowering) against the ``O0`` reference oracle;
* artifact round-trips preserving the pipeline config + per-pass reports,
  and artifacts saved at the retired ``O3`` level binding as ``O2``.
"""

import json
import sys

import numpy as np
import pytest

from repro.core import (
    OPT_LEVELS,
    PASS_REGISTRY,
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    PassManager,
    VerificationError,
    compile_network,
    compress_model,
    load_program,
    read_program_metadata,
    registered_passes,
    save_program,
    verify_program,
)
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset
from repro.serve.repository import ModelRepository


def _loader(seed=0, n=32):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 3, 32, 32))
    targets = rng.integers(0, 10, size=n)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


def _calibrated_engine(model_name, seed=0, lut_bitwidth=8, **config_kwargs):
    model = create_model(model_name, num_classes=10, in_channels=3, rng=seed)
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8), seed=seed,
    )
    engine = BitSerialInferenceEngine(
        result.model,
        result.pool,
        EngineConfig(lut_bitwidth=lut_bitwidth, calibration_batches=2, **config_kwargs),
    )
    engine.calibrate(_loader(seed))
    return engine


@pytest.fixture(scope="module")
def resnet_engine():
    return _calibrated_engine("resnet14_tiny")


@pytest.fixture(scope="module")
def mobilenet_engine():
    return _calibrated_engine("mobilenetv2_tiny")


def _edit_header(path, edit):
    """Rewrite a saved artifact's JSON header in place (arrays untouched, so
    the embedded content digest still verifies)."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(str(arrays["__program__"]))
    edit(header)
    arrays["__program__"] = np.array(json.dumps(header))
    np.savez_compressed(path, **arrays)


def _as_o3_record(record):
    """What a header (or a repository sidecar) compiled and bound at the
    retired O3 level recorded."""
    record["opt_level"] = "O3"
    record["pipeline"].update(level="O3", effective_level="O3")
    record["pipeline"]["passes"].append(
        {
            "name": "autotune",
            "stage": "tune",
            "counters": {"layers_tuned": 1, "trials": 174, "tile": 8, "n_shards": 2},
            "decisions": {
                "layers": {"layer1.0.conv1": {"tap_gather": "fused", "encoder": "packbits"}}
            },
        }
    )


def _as_o3_header(header):
    for record in (header, header["metadata"]):
        _as_o3_record(record)


def _oracle(engine):
    return Executor(engine.compile(level="O0"), backend="reference")


def _fresh_program(engine, level, **kwargs):
    """A freshly-compiled program (not the engine's cached executor's), so
    tests that corrupt the IR never poison shared state."""
    return compile_network(
        engine.model, (3, 32, 32),
        lut=engine.lut,
        activation_params=engine.activation_params,
        level=level,
        **kwargs,
    )


class TestRegistry:
    def test_documented_passes_are_registered(self):
        expected = {
            "fold_batchnorm": ("graph", "O1"),
            "fuse_requantize": ("graph", "O1"),
            "dedupe_quantize": ("graph", "O1"),
            "fold_activation_into_quantize": ("graph", "O1"),
            "memory_plan": ("schedule", "O2"),
            "codegen": ("codegen", "O4"),
        }
        for name, (stage, level) in expected.items():
            assert name in PASS_REGISTRY, f"pass '{name}' not registered"
            assert PASS_REGISTRY[name].stage == stage
            assert PASS_REGISTRY[name].level == level

    def test_levels_enable_monotonically(self):
        counts = [len(PassManager(level=level).enabled("graph")) for level in OPT_LEVELS]
        assert counts == sorted(counts)
        assert counts[0] == 0  # O0 = reference lowering, no graph passes
        assert counts[1] == len(registered_passes("graph"))

    def test_every_graph_pass_has_counters_declared(self):
        for pass_ in registered_passes("graph"):
            assert pass_.counters, f"pass '{pass_.name}' declares no report counters"
            assert pass_.rewrites


class TestValidation:
    """Unknown level/pass names fail loudly listing the valid choices."""

    def test_unknown_level_rejected_listing_choices(self, compressed_small_model):
        with pytest.raises(ValueError, match="O0, O1, O2, O4"):
            compile_network(compressed_small_model.model, (3, 32, 32), level="O7")

    def test_retired_o3_level_is_rejected(self, compressed_small_model):
        assert OPT_LEVELS == ("O0", "O1", "O2", "O4")
        with pytest.raises(ValueError, match="'O3'; valid levels: O0, O1, O2, O4"):
            compile_network(compressed_small_model.model, (3, 32, 32), level="O3")
        with pytest.raises(ValueError, match="'O3'; valid levels: O0, O1, O2, O4"):
            EngineConfig(opt_level="O3")

    def test_unknown_pass_rejected_listing_registered(self, compressed_small_model):
        with pytest.raises(ValueError, match="fold_batchnorm"):
            compile_network(
                compressed_small_model.model, (3, 32, 32), passes=["not_a_pass"]
            )

    def test_non_graph_pass_cannot_be_selected_explicitly(self, compressed_small_model):
        with pytest.raises(ValueError, match="graph-stage"):
            compile_network(
                compressed_small_model.model, (3, 32, 32), passes=["memory_plan"]
            )

    def test_engine_config_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="O0, O1, O2, O4"):
            EngineConfig(opt_level="O9")

    def test_engine_compile_rejects_unknown_level(self, resnet_engine):
        with pytest.raises(ValueError, match="valid levels"):
            resnet_engine.compile(level="turbo")

    def test_misconfiguration_fails_before_lowering(self):
        # Validation happens before any model work, so even a model that
        # cannot lower reports the configuration error first.
        from repro.nn import Module

        class Opaque(Module):
            def forward(self, x):
                return x

        with pytest.raises(ValueError, match="valid levels"):
            compile_network(Opaque(), (3, 32, 32), level="Ofast")


class TestVerifier:
    def test_compiled_programs_verify(self, resnet_engine):
        for level in ("O0", "O1", "O2"):
            program = resnet_engine.compile(level=level)
            counters = verify_program(program)
            assert counters["ops"] == len(program.ops)
            assert counters["ssa_checks"] == len(program.ops)
            assert counters["consumer_checks"] == (
                program.count("bitserial_conv") + program.count("bitserial_linear")
            )

    def test_structural_programs_verify(self, compressed_small_model):
        program = compile_network(compressed_small_model.model, (3, 32, 32), level="O0")
        counters = verify_program(program)
        assert counters["dtype_checks"] == 0  # unbound: no dtype propagation

    def test_ssa_violation_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        program.ops[3].output = program.ops[1].output
        with pytest.raises(VerificationError, match="written more than once"):
            verify_program(program)

    def test_use_before_def_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        program.ops[0].inputs = (program.num_buffers + 7,)
        with pytest.raises(VerificationError, match="before any op defines it"):
            verify_program(program)

    def test_shape_mismatch_detected_and_names_the_op(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        bad = next(op for op in program.ops if op.kind == "bitserial_conv")
        bad.out_shape = (bad.out_shape[0] + 1,) + bad.out_shape[1:]
        with pytest.raises(VerificationError, match=bad.name):
            verify_program(program)

    def test_missing_epilogue_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O1")
        victim = next(op for op in program.ops if op.kind == "requantize")
        victim.kind = "activation"
        victim.attrs["fn"] = "relu"
        with pytest.raises(VerificationError, match="dequantize/requantize epilogue"):
            verify_program(program)

    def test_integer_pool_on_float_buffer_detected(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O0")
        pool = next(op for op in program.ops if op.kind == "pool")
        pool.attrs["integer"] = True  # claims an integer input it doesn't have
        with pytest.raises(VerificationError, match="integer-marked pool"):
            verify_program(program)

    def test_debug_mode_verifies_between_passes(self, resnet_engine):
        program = resnet_engine.compile(level="O2")  # debug off: exit-only
        assert program.pipeline_report["verifier_runs"] == 1
        debug = _fresh_program(resnet_engine, "O2", debug=True)
        graph_passes = len(registered_passes("graph"))
        assert debug.pipeline_report["verifier_runs"] == graph_passes + 1
        assert debug.pipeline_report["debug"] is True


class TestPassIdempotency:
    """Running any registered graph pass twice changes nothing."""

    @pytest.fixture(scope="class")
    def programs(self, resnet_engine):
        return resnet_engine  # alias for readability

    @pytest.mark.parametrize("name", ["fold_batchnorm", "fuse_requantize",
                                      "dedupe_quantize", "fold_activation_into_quantize"])
    def test_second_run_is_a_no_op(self, resnet_engine, name):
        program = _fresh_program(resnet_engine, "O1")
        kinds = program.kinds()
        pass_ = PASS_REGISTRY[name]
        counters = pass_.fn(program)
        assert all(v == 0 for v in counters.values()), (
            f"pass '{name}' reported work on a second run: {counters}"
        )
        assert program.kinds() == kinds
        verify_program(program)

    def test_outputs_stable_after_reapplying_every_pass(self, resnet_engine):
        once = resnet_engine.compile(level="O1")
        x = np.random.default_rng(11).normal(size=(4, 3, 32, 32))
        expected = Executor(once).run(x)
        twice = _fresh_program(resnet_engine, "O1")
        for pass_ in registered_passes("graph"):
            pass_.fn(twice)  # re-apply the whole stage a second time
        assert twice.kinds() == once.kinds()
        np.testing.assert_array_equal(Executor(twice).run(x), expected)


class TestLevelEquivalence:
    """O0..O2 and O4 are prediction-identical on ResNet-14 and match the
    oracle."""

    @pytest.fixture(scope="class")
    def executors(self, resnet_engine):
        return {level: resnet_engine._executor(level=level) for level in OPT_LEVELS}

    def test_level_stages_engage_as_documented(self, executors):
        assert executors["O0"].exec_plan is None
        assert not executors["O0"].program.optimized
        assert executors["O1"].exec_plan is None
        assert executors["O1"].program.optimized
        assert executors["O2"].exec_plan is not None
        assert executors["O4"].exec_plan is not None

    def test_predictions_identical_across_levels_and_oracle(self, resnet_engine, executors):
        x = np.random.default_rng(21).normal(size=(9, 3, 32, 32))
        oracle = _oracle(resnet_engine).run(x)
        oracle_pred = oracle.argmax(axis=1)
        outputs = {level: executor.run(x) for level, executor in executors.items()}
        # O0 on the plan backend differs from the oracle only by the fused
        # epilogue's float association.
        np.testing.assert_allclose(outputs["O0"], oracle, rtol=1e-12, atol=1e-12)
        # O1 (interpreted) and O2 (planned) share the heuristic tile: bitwise
        # identical.
        np.testing.assert_array_equal(outputs["O1"], outputs["O2"])
        for level, out in outputs.items():
            np.testing.assert_array_equal(out.argmax(axis=1), oracle_pred, err_msg=level)

    def test_evaluate_accuracy_identical_across_levels(self, executors):
        loader = _loader(seed=5, n=32)
        accuracies = {level: ex.evaluate(loader) for level, ex in executors.items()}
        assert len(set(accuracies.values())) == 1, accuracies


class TestSchedule:
    """The planned schedule's tile and shard count: the caller's, else the
    plan backend's cache heuristic and one shard per core."""

    def test_heuristic_tile_and_per_core_shards(self, resnet_engine):
        from repro.core.program import _default_shard_count

        executor = Executor(_fresh_program(resnet_engine, "O2"))
        assert executor.exec_plan.tile == executor.tile == executor.plan_info["tile"]
        assert executor.n_shards == _default_shard_count() == executor.plan_info["n_shards"]
        assert "autotune" not in executor.plan_info
        names = [p["name"] for p in executor.program.pipeline_report["passes"]]
        assert "memory_plan" in names and "autotune" not in names

    def test_pinned_tile_and_shards_are_respected(self, resnet_engine):
        executor = Executor(_fresh_program(resnet_engine, "O2"), tile=4, n_shards=2)
        assert executor.exec_plan.tile == 4
        assert executor.n_shards == 2

    def test_report_travels_with_the_program(self, resnet_engine):
        executor = Executor(_fresh_program(resnet_engine, "O2"), tile=4, n_shards=2)
        names = [p["name"] for p in executor.program.pipeline_report["passes"]]
        assert "memory_plan" in names
        meta = executor.program.metadata()
        assert meta["opt_level"] == "O2"
        assert meta["execution_plan"]["tile"] == 4
        assert meta["execution_plan"]["n_shards"] == 2
        assert meta["execution_plan"]["arena_bytes"] == executor.plan_info["arena_bytes"]


class TestMobileNetV2Pipeline:
    """Tiny MobileNetV2 end to end: depthwise/grouped conv through the
    compiled pipeline, against the per-layer oracle."""

    def test_program_contains_grouped_depthwise_convs(self, mobilenet_engine):
        program = mobilenet_engine.compile(level="O2")
        depthwise = [
            op for op in program.ops
            if op.kind == "conv" and op.attrs.get("groups", 1) > 1
        ]
        assert depthwise, "MobileNetV2 must lower its depthwise convs as grouped conv ops"
        for op in depthwise:
            # Depthwise: one group per channel, weight shape (C, 1, 3, 3).
            assert op.attrs["groups"] == op.attrs["in_channels"]
            assert op.attrs["weight"].shape[1] == 1
        assert program.count("bitserial_conv") > 0  # pointwise convs compressed

    def test_plan_backend_matches_the_oracle(self, mobilenet_engine):
        x = np.random.default_rng(31).normal(size=(5, 3, 32, 32))
        oracle = _oracle(mobilenet_engine).run(x)
        # O0 differs only by the fused epilogue's float association.
        np.testing.assert_allclose(
            mobilenet_engine._executor(level="O0").run(x), oracle,
            rtol=1e-12, atol=1e-12,
        )
        # Optimized levels track the oracle within the documented float
        # tolerance, with identical predictions.
        for level in ("O1", "O2"):
            out = mobilenet_engine._executor(level=level).run(x)
            scale = max(float(np.abs(oracle).max()), 1e-12)
            assert np.abs(out - oracle).max() < 1e-9 * scale
            np.testing.assert_array_equal(out.argmax(axis=1), oracle.argmax(axis=1))

    def test_evaluate_matches_oracle_accuracy(self, mobilenet_engine):
        loader = _loader(seed=9, n=32)
        assert mobilenet_engine.evaluate(loader) == _oracle(mobilenet_engine).evaluate(loader)


class TestArtifactRoundTrip:
    """Pipeline config + per-pass reports survive save/load header-only."""

    def test_round_trip_preserves_pipeline_report(self, resnet_engine, tmp_path):
        program = resnet_engine.compile(level="O2")
        path = tmp_path / "program.npz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.opt_level == "O2"
        assert loaded.pipeline_report == program.pipeline_report
        # Execution plans are derived state: a fresh executor re-plans the
        # loaded program at this host's heuristic tile and shard count.
        executor = Executor(loaded)
        assert executor.exec_plan is not None
        x = np.random.default_rng(23).normal(size=(6, 3, 32, 32))
        np.testing.assert_array_equal(executor.run(x), Executor(program).run(x))

    def test_recorded_encoder_of_older_artifacts_is_ignored(self, resnet_engine, tmp_path):
        """Older headers record a per-layer "encoder" (and "tap_gather") pick
        in an ``autotune`` pass entry; the encoder follows from the plan's
        geometry and the tap gather is fixed, so the entry is dropped on load
        and the artifact runs bitwise-equal."""
        path = tmp_path / "program.npz"
        save_program(resnet_engine.compile(level="O2"), path)
        x = np.random.default_rng(23).normal(size=(6, 3, 32, 32))
        expected = Executor(load_program(path), tile=4, n_shards=1).run(x)
        _edit_header(path, _as_o3_header)
        loaded = load_program(path)
        assert "autotune" not in [p["name"] for p in loaded.pipeline_report["passes"]]
        executor = Executor(loaded, tile=4, n_shards=1)
        if sys.byteorder == "little":  # full 8-channel groups: always bitmul
            kernels = [step.plan for step in executor._steps if step.plan is not None]
            assert {getattr(p, "conv_plan", p).encoder for p in kernels} == {"bitmul"}
        np.testing.assert_array_equal(executor.run(x), expected)

    def test_o3_artifacts_bind_as_the_o2_plan(self, resnet_engine, tmp_path):
        """An artifact saved at the retired O3 level loads as O2: no autotune
        on the bound executor, the heuristic tile and per-core shards, and
        outputs bitwise-equal to a fresh O2 bind of the same model."""
        path = tmp_path / "program.npz"
        save_program(resnet_engine.compile(level="O2"), path)
        _edit_header(path, _as_o3_header)
        meta = read_program_metadata(path)
        assert meta["opt_level"] == "O2"
        assert meta["pipeline"]["level"] == meta["pipeline"]["effective_level"] == "O2"
        assert "autotune" not in [p["name"] for p in meta["pipeline"]["passes"]]
        loaded = load_program(path)
        assert loaded.opt_level == loaded.effective_opt_level == "O2"
        executor = Executor(loaded)
        assert not hasattr(executor, "autotune")
        assert "autotune" not in executor.plan_info
        fresh = Executor(_fresh_program(resnet_engine, "O2"))
        assert executor.exec_plan.tile == fresh.exec_plan.tile
        assert executor.n_shards == fresh.n_shards
        x = np.random.default_rng(29).normal(size=(20, 3, 32, 32))
        np.testing.assert_array_equal(executor.run(x), fresh.run(x))

        # A repository version published while O3 was a level keeps its
        # metadata.json sidecar: listings (and the pipeline report a process
        # server takes from them) read it through the same mapping.
        repo = ModelRepository(tmp_path / "models")
        version = repo.publish_artifact(path, "resnet")
        sidecar = repo.artifact_path("resnet", version).parent / "metadata.json"
        recorded = json.loads(sidecar.read_text())
        _as_o3_record(recorded)
        sidecar.write_text(json.dumps(recorded))
        for listed in (repo.metadata("resnet"), repo.get("resnet").metadata):
            assert listed["opt_level"] == "O2"
            assert listed["pipeline"]["level"] == listed["pipeline"]["effective_level"] == "O2"
            assert "autotune" not in [p["name"] for p in listed["pipeline"]["passes"]]
        assert repo.get("resnet").program.effective_opt_level == "O2"

    def test_o4_fallback_recorded_as_o3_binds_as_o2(self, resnet_engine, tmp_path):
        path = tmp_path / "program.npz"
        save_program(resnet_engine.compile(level="O2"), path)

        def o4_fallen_back_to_o3(header):
            for record in (header, header["metadata"]):
                record["opt_level"] = "O4"
                record["pipeline"].update(
                    level="O4", effective_level="O3", fallback_reason="no_compiler"
                )

        _edit_header(path, o4_fallen_back_to_o3)
        loaded = load_program(path)
        assert loaded.opt_level == "O4"
        assert loaded.effective_opt_level == "O2"
        assert read_program_metadata(path)["pipeline"]["effective_level"] == "O2"
        executor = Executor(loaded, backend="plan", tile=8, n_shards=1)
        oracle = Executor(_fresh_program(resnet_engine, "O2"), tile=8, n_shards=1)
        x = np.random.default_rng(31).normal(size=(9, 3, 32, 32))
        np.testing.assert_array_equal(executor.run(x), oracle.run(x))

    def test_metadata_header_only_shows_pipeline(self, resnet_engine, tmp_path):
        program = resnet_engine.compile(level="O2")
        path = tmp_path / "program.npz"
        save_program(program, path)
        meta = read_program_metadata(path)
        assert meta["opt_level"] == "O2"
        names = [p["name"] for p in meta["pipeline"]["passes"]]
        assert "fold_batchnorm" in names and "memory_plan" in names
        assert meta["pipeline"]["verifier_runs"] >= 1

    def test_legacy_artifacts_without_pipeline_still_load(self, resnet_engine, tmp_path):
        program = resnet_engine.compile(level="O2")
        program.opt_level = None
        program.pipeline_report = None  # simulate a pre-pass-manager artifact
        path = tmp_path / "legacy.npz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.opt_level is None
        assert loaded.effective_opt_level == "O2"  # inferred from `optimized`
        assert Executor(loaded).exec_plan is not None
