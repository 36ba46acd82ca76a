"""Tests for the native (O4) codegen backend.

Covers the backend's contracts end to end:

* bit-exactness — at a pinned tile/shard configuration the native backend
  is bitwise identical to the plan backend on ResNet-14, MobileNetV2 and a
  channel-padded TinyConv (plain, strided, depthwise, grouped and
  pad_channels lowerings) at 4- and 8-bit activations, with and without
  ``active_bits`` truncation — skipped without a host C compiler;
* the compile-flag contract — ``-O3`` with FMA contraction off, and no
  value-changing or host-ISA flag (the cache key carries no ISA);
* the split build — per-segment units compiled in parallel leave no
  intermediate files behind on failure, name the failing unit's command,
  and concurrent builders of one key end with one valid library;
* a loaded O4 artifact binds from the build cache without a compiler;
* deterministic emission — the same program emits byte-identical C source
  and consts blobs twice (the build cache's correctness precondition);
* the no-compiler fallback — O4 degrades to the plan backend at effective
  level O2 with a surfaced ``fallback_reason`` (never silently), and a
  later bind on a capable host clears the fallback;
* artifact round-trips of the native build metadata (source + hashes),
  loadable without compiling anything;
* serve ``/stats`` reporting the *active* backend and effective level.
"""

import ctypes
import threading

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    compile_network,
    compress_model,
    load_program,
    read_program_metadata,
    save_program,
)
from repro.core.codegen import build, emit_native
from repro.core.codegen.build import find_compiler
from repro.core.program import auto_backend
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset

needs_cc = pytest.mark.skipif(
    find_compiler() is None, reason="no host C compiler available"
)


def _loader(seed=0, n=32):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 3, 32, 32))
    targets = rng.integers(0, 10, size=n)
    return DataLoader(ArrayDataset(inputs, targets), batch_size=16)


def _calibrated_engine(model_name, seed=0, bits=8, model_kwargs=None, **policy_kwargs):
    model = create_model(
        model_name, num_classes=10, in_channels=3, rng=seed, **(model_kwargs or {})
    )
    result = compress_model(
        model, (3, 32, 32), pool_size=16,
        policy=CompressionPolicy(group_size=8, **policy_kwargs), seed=seed,
    )
    engine = BitSerialInferenceEngine(
        result.model,
        result.pool,
        EngineConfig(activation_bitwidth=bits, lut_bitwidth=8, calibration_batches=2),
    )
    engine.calibrate(_loader(seed))
    return engine


@pytest.fixture(scope="module")
def resnet_engine():
    return _calibrated_engine("resnet14_tiny")


def _fresh_program(engine, level):
    return compile_network(
        engine.model, (3, 32, 32),
        lut=engine.lut,
        activation_params=engine.activation_params,
        act_bitwidth=engine.config.activation_bitwidth,
        level=level,
    )


def _batch(n=13, seed=7):
    return np.random.default_rng(seed).normal(size=(n, 3, 32, 32))


# ---------------------------------------------------------------------------
# Bit-exactness against the plan oracle
# ---------------------------------------------------------------------------
_BITWISE_MODELS = {
    "resnet14_tiny": {},
    "mobilenetv2_tiny": {},
    # 5-channel convs under group size 8: the pad_channels glue in C.
    "tinyconv_padded": dict(
        model_kwargs={"width_mult": 0.15}, pad_channels=True, compress_first_layer=False
    ),
}


@pytest.fixture(scope="module")
def bitwise_engine():
    engines = {}

    def get(name, bits):
        if (name, bits) not in engines:
            engines[name, bits] = _calibrated_engine(
                name.replace("_padded", ""), bits=bits, **_BITWISE_MODELS[name]
            )
        return engines[name, bits]

    return get


@needs_cc
class TestBitExactness:
    @pytest.mark.parametrize("truncate", [False, True], ids=["all_bits", "active_bits"])
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("name", sorted(_BITWISE_MODELS))
    def test_native_matches_plan_bitwise(self, bitwise_engine, name, bits, truncate):
        engine = bitwise_engine(name, bits)
        active_bits = bits // 2 if truncate else None
        # Same tile + serial shards on both sides: the only numerics caveat
        # of the planned path is the float convs' BLAS batch (tile) size,
        # so pinning it makes bitwise identity the contract, not luck.
        oracle = Executor(
            _fresh_program(engine, "O4"), backend="plan", tile=8, n_shards=1,
            active_bits=active_bits,
        )
        native = Executor(
            _fresh_program(engine, "O4"), backend="native", tile=8, n_shards=1,
            active_bits=active_bits,
        )
        assert native.backend == "native"
        assert native._native is not None
        counters = native._native.counters()
        assert counters["segments"] >= 1
        assert 0 < counters["native_steps"] <= counters["steps"]
        x = _batch()  # 13 samples: whole tiles plus a ragged tail
        np.testing.assert_array_equal(native.run(x), oracle.run(x))

    def test_effective_level_and_codegen_report(self, resnet_engine):
        program = _fresh_program(resnet_engine, "O4")
        executor = Executor(program, backend="native", tile=8, n_shards=1)
        assert program.effective_opt_level == "O4"
        report = program.pipeline_report
        assert report["fallback_reason"] is None
        passes = {p["name"]: p for p in report["passes"]}
        assert "codegen" in passes and passes["codegen"]["stage"] == "codegen"
        assert passes["codegen"]["counters"]["native_steps"] > 0
        assert executor.plan_info["backend"] == "native"
        build = program.native_build
        assert build["abi"] == 1
        assert build["source"].startswith("/* Generated by repro.core.codegen")


@needs_cc
def test_o4_bind_plans_the_same_schedule_as_plan(resnet_engine):
    """A native bind plans at the plan backend's heuristic tile and shard
    count and times nothing: the C is emitted for the arena every bind of
    the program plans, a loading worker's too."""
    native = Executor(_fresh_program(resnet_engine, "O4"), backend="native")
    plan = Executor(_fresh_program(resnet_engine, "O4"), backend="plan")
    assert native.backend == "native"
    assert native.exec_plan.tile == plan.exec_plan.tile
    assert native.n_shards == plan.n_shards
    assert native.plan_info["arena_bytes"] == plan.plan_info["arena_bytes"]
    assert "autotune" not in native.plan_info


@needs_cc
def test_loaded_o4_artifact_binds_from_the_cache(resnet_engine, monkeypatch, tmp_path):
    """The compiling bind and a loading bind (a process worker, a replica, a
    respawn) emit the same source, so the loader needs no compiler."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    program = _fresh_program(resnet_engine, "O4")
    assert Executor(program, backend=auto_backend("plan", program)).backend == "native"
    path = tmp_path / "model.npz"
    save_program(program, path)
    loaded = load_program(path)
    monkeypatch.setattr("repro.core.codegen.build.find_compiler", lambda: None)
    executor = Executor(loaded, backend=auto_backend("plan", loaded))
    assert executor.backend == "native"
    assert executor.plan_info["native"]["cache_hit"] == 1
    assert len(list(cache.glob("*.so"))) == 1


# ---------------------------------------------------------------------------
# Compile flags and the split build
# ---------------------------------------------------------------------------
def test_cflags_keep_the_bitwise_contract():
    assert "-O3" in build.CFLAGS
    # No FMA contraction: float epilogues must round like the NumPy ufuncs.
    assert "-ffp-contract=off" in build.CFLAGS
    # Value-changing flags break bit-exactness; host-ISA flags would need
    # the ISA in the cache key, which carries none.
    for flag in ("-ffast-math", "-Ofast", "-march=native"):
        assert flag not in build.CFLAGS
    assert not any(f.startswith(("-march", "-mtune", "-mcpu")) for f in build.CFLAGS)


_HEADER = "#include <stdint.h>\n"
_SEG0 = "void repro_seg_0(int32_t* out) { *out = 7; }\n"
_SEG1 = "void repro_seg_1(int32_t* out) { *out = 11; }\n"


@needs_cc
def test_failed_unit_names_its_command_and_leaves_no_files(tmp_path):
    (tmp_path / "keep.txt").write_text("pre-existing")
    broken = "void repro_seg_1(void) { this is not C }\n"
    units = [_HEADER + _SEG0, _HEADER + broken]
    with pytest.raises(build.NativeBuildError) as info:
        build.build_shared_library(
            _HEADER + _SEG0 + broken, b"\x01", cache_dir=tmp_path, units=units
        )
    assert "unit1.c" in str(info.value) and "unit0.c" not in str(info.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]


@needs_cc
def test_concurrent_builders_of_one_key_end_with_one_library(tmp_path):
    source, units = _HEADER + _SEG0 + _SEG1, [_HEADER + _SEG0, _HEADER + _SEG1]
    results = []

    def builder():
        results.append(
            build.build_shared_library(source, b"\x02", cache_dir=tmp_path, units=units)
        )

    # More builders than cores, all racing to publish the same key.
    threads = [threading.Thread(target=builder) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(results) == 4 and len({path for path, _, _ in results}) == 1
    lib_path = results[0][0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        lib_path.with_suffix(".c").name, lib_path.name,
    ]
    assert lib_path.with_suffix(".c").read_text() == source
    lib = ctypes.CDLL(str(lib_path))
    out = ctypes.c_int32()
    for name, value in (("repro_seg_0", 7), ("repro_seg_1", 11)):
        getattr(lib, name)(ctypes.byref(out))
        assert out.value == value


# ---------------------------------------------------------------------------
# Deterministic emission (no compiler required)
# ---------------------------------------------------------------------------
def test_emission_is_deterministic(resnet_engine):
    program = _fresh_program(resnet_engine, "O2")
    executor = Executor(program, backend="plan", tile=8, n_shards=1)
    first = emit_native(program, executor._steps, executor.exec_plan)
    second = emit_native(program, executor._steps, executor.exec_plan)
    assert first.source == second.source
    assert first.consts == second.consts
    assert first.source_sha256 == second.source_sha256
    assert [s.name for s in first.segments] == [s.name for s in second.segments]


# ---------------------------------------------------------------------------
# No-compiler fallback (simulated; runs with or without a real compiler)
# ---------------------------------------------------------------------------
def test_no_compiler_falls_back_to_plan(resnet_engine, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cold-cache"))
    monkeypatch.setattr("repro.core.codegen.build.find_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="no C compiler.*effective level O2"):
        program = _fresh_program(resnet_engine, "O4")
    # The compile-time probe already surfaces the downgrade in the report.
    assert program.pipeline_report["fallback_reason"] == "no_compiler"
    assert program.effective_opt_level == "O2"
    with pytest.warns(RuntimeWarning, match=r"falling back.*effective level O2"):
        executor = Executor(program, backend="native", tile=8, n_shards=1)
    assert executor.backend == "plan"
    assert executor.exec_plan is not None  # still the full O2 planned path
    assert executor.plan_info["backend"] == "plan"
    assert program.pipeline_report["effective_level"] == "O2"
    oracle = Executor(
        _fresh_program(resnet_engine, "O2"), backend="plan", tile=8, n_shards=1
    )
    x = _batch(n=5)
    np.testing.assert_array_equal(executor.run(x), oracle.run(x))


@needs_cc
def test_capable_host_rebind_clears_fallback(resnet_engine, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.codegen.build.find_compiler", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            program = _fresh_program(resnet_engine, "O4")
    assert program.effective_opt_level == "O2"
    # The executor retries at bind time: with the compiler visible again the
    # native bind succeeds and clears the compile-time probe's fallback.
    executor = Executor(program, backend="native", tile=8, n_shards=1)
    assert executor.backend == "native"
    assert program.pipeline_report["fallback_reason"] is None
    assert program.effective_opt_level == "O4"


# ---------------------------------------------------------------------------
# Build cache key (no compile involved)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, value",
    [("CFLAGS", build.CFLAGS + ("-march=native",)), ("NATIVE_ABI", build.NATIVE_ABI + 1)],
)
def test_cache_key_covers_flags_and_abi(monkeypatch, tmp_path, name, value):
    source, consts = "int repro_probe(void) { return 0; }\n", b"\x01\x02"
    key = build.content_key(source, consts)
    warmed = tmp_path / f"repro_{key[:32]}.so"
    warmed.write_bytes(b"")  # stands in for a library built the pinned way
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    # A warmed cache is served without a compiler...
    assert build.build_shared_library(source, consts, cache_dir=tmp_path) == (
        warmed, True, None,
    )
    monkeypatch.setattr(build, name, value)
    other = build.content_key(source, consts)
    assert other != key
    assert f"repro_{other[:32]}.so" != warmed.name
    # ...but never to a build with other flags or another ABI: that is a
    # cache miss, which here has no compiler to fall back on.
    with pytest.raises(build.NoCompilerError):
        build.build_shared_library(source, consts, cache_dir=tmp_path)


# ---------------------------------------------------------------------------
# Artifact round-trip of the native build (no compile involved)
# ---------------------------------------------------------------------------
def test_native_build_roundtrips_through_artifacts(resnet_engine, tmp_path):
    program = _fresh_program(resnet_engine, "O2")
    program.native_build = {
        "abi": 1,
        "source_sha256": "ab" * 32,
        "consts_sha256": "cd" * 32,
        "cflags": ["-O2", "-std=c99"],
        "compiler": "/usr/bin/cc",
        "cache_hit": False,
        "segments": 3,
        "native_steps": 22,
        "scratch_bytes": 4096,
        "source": "/* emitted C */\nint repro_marker;\n",
    }
    path = tmp_path / "native.npz"
    save_program(program, path)
    loaded = load_program(path)
    assert loaded.native_build == program.native_build
    # Header-only metadata exposes the build record without the source text.
    meta = read_program_metadata(path)
    assert meta["native"]["source_sha256"] == "ab" * 32
    assert "source" not in meta["native"]
    # Programs without a native bind round-trip unchanged.
    plain = _fresh_program(resnet_engine, "O2")
    save_program(plain, tmp_path / "plain.npz")
    assert load_program(tmp_path / "plain.npz").native_build is None


# ---------------------------------------------------------------------------
# Serve /stats surfaces the active backend and effective level
# ---------------------------------------------------------------------------
def _serve_snapshot(tmp_path, program):
    from repro.serve import InferenceServer, ModelRepository

    artifact = tmp_path / "model.npz"
    save_program(program, artifact)
    repository = ModelRepository(tmp_path / "repo", capacity=2)
    repository.publish_artifact(artifact, "model")
    with InferenceServer(repository) as server:
        sample = np.zeros((3, 32, 32))
        server.predict("model", sample, timeout=60.0)
        return server.snapshot()["model/1"]


@needs_cc
def test_serve_stats_report_native_backend(resnet_engine, tmp_path):
    snap = _serve_snapshot(tmp_path, _fresh_program(resnet_engine, "O4"))
    assert snap["executor"]["backend"] == "native"
    assert snap["pipeline"]["level"] == "O4"
    assert snap["pipeline"]["effective_level"] == "O4"
    assert snap["pipeline"]["fallback_reason"] is None


def test_serve_stats_surface_fallback(resnet_engine, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cold-cache"))
    program = _fresh_program(resnet_engine, "O4")  # may or may not warn here
    monkeypatch.setattr("repro.core.codegen.build.find_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="falling back"):
        snap = _serve_snapshot(tmp_path, program)
    assert snap["executor"]["backend"] == "plan"
    assert snap["pipeline"]["level"] == "O4"
    assert snap["pipeline"]["effective_level"] == "O2"
    assert snap["pipeline"]["fallback_reason"] == "no_compiler"
