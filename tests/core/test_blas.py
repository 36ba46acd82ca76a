"""The BLAS thread cap a sharded executor runs under.

Sharded executors run one worker thread per core; their float conv/linear
steps must then run on one OpenBLAS thread, or BLAS starts a second pool
of per-core threads on top of the shards.  The cap is process-wide and
shared: the first sharded run to start saves the thread count and the last
to finish restores it.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    Executor,
    compress_model,
)
from repro.core.blas import blas_threads, single_threaded_blas
from repro.models import create_model
from repro.nn import DataLoader
from repro.nn.data.dataset import ArrayDataset

pytestmark = pytest.mark.skipif(
    (blas_threads() or 0) < 2,
    reason="needs NumPy on a multi-threaded OpenBLAS this process can find",
)


def test_cap_is_shared_by_overlapping_blocks_and_restored():
    before = blas_threads()
    first, second = single_threaded_blas(), single_threaded_blas()
    first.__enter__()
    assert blas_threads() == 1
    second.__enter__()
    first.__exit__(None, None, None)  # blocks may end in any order
    assert blas_threads() == 1
    second.__exit__(None, None, None)
    assert blas_threads() == before


def test_cap_is_restored_when_the_block_raises():
    before = blas_threads()
    with pytest.raises(RuntimeError):
        with single_threaded_blas():
            raise RuntimeError("shard failed")
    assert blas_threads() == before


def test_cap_holds_under_concurrent_blocks():
    """More threads than cores enter and leave the cap at a short switch
    interval: inside a block the cap must hold, and a lost update to the
    shared depth would leave the count capped (or restore it early)."""
    before = blas_threads()
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def churn():
            for _ in range(200):
                with single_threaded_blas():
                    seen.append(blas_threads())

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert blas_threads() == before


@pytest.fixture(scope="module")
def program():
    rng = np.random.default_rng(0)
    model = create_model("resnet14_tiny", num_classes=10, in_channels=3, rng=0)
    result = compress_model(
        model, (3, 32, 32), pool_size=16, policy=CompressionPolicy(group_size=8), seed=0
    )
    engine = BitSerialInferenceEngine(
        result.model, result.pool, EngineConfig(lut_bitwidth=8, calibration_batches=2)
    )
    data = ArrayDataset(rng.normal(size=(32, 3, 32, 32)), rng.integers(0, 10, size=32))
    engine.calibrate(DataLoader(data, batch_size=16))
    return engine.compile(level="O2")


def _threads_seen_by_chunks(executor, x):
    seen = []
    lock = threading.Lock()
    run_chunk = executor._run_chunk

    def recording(runtime, chunk, out):
        with lock:
            seen.append(blas_threads())
        run_chunk(runtime, chunk, out)

    executor._run_chunk = recording
    return executor.run(x), seen


def test_sharded_runs_cap_blas_and_serial_runs_do_not(program):
    before = blas_threads()
    x = np.random.default_rng(1).normal(size=(13, 3, 32, 32))
    sharded, seen = _threads_seen_by_chunks(Executor(program, tile=4, n_shards=2), x)
    assert seen == [1, 1]
    assert blas_threads() == before
    serial, seen = _threads_seen_by_chunks(Executor(program, tile=4, n_shards=1), x)
    assert seen == [before]
    # Fewer BLAS threads split the same GEMMs differently, never their sums.
    np.testing.assert_array_equal(sharded, serial)
