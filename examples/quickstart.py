"""Quickstart: compress a small CNN with weight pools and run it bit-serially.

This walks the full pipeline of the paper on a laptop-sized problem:

1. train a small CNN on a synthetic CIFAR-10-like task,
2. compress it with a shared z-dimension weight pool (paper §3),
3. fine-tune the pool-index assignment (paper Figure 2),
4. compile it through the pass-manager pipeline (calibrate → lower → graph
   passes → memory plan; the 8-bit build runs at level O2 and prints the
   pipeline report — passes run, ops before/after, arena bytes) and
   execute it with the bit-serial graph executor at 8-bit and 4-bit
   activations (paper §3.1–3.3),
5. report compression ratio, accuracy, and estimated microcontroller latency.

Run with:  python examples/quickstart.py          (full demo)
           python examples/quickstart.py --fast   (CI smoke: tiny scale)
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis import evaluate_accuracy
from repro.core import (
    BitSerialInferenceEngine,
    CompressionPolicy,
    EngineConfig,
    analyze_model_storage,
    compress_model,
    finetune_compressed_model,
    format_pipeline_report,
)
from repro.datasets import SyntheticCIFAR10, make_classification_split
from repro.mcu import MC_LARGE, BitSerialKernelConfig, estimate_cmsis_network, estimate_weight_pool_network
from repro.models import create_model
from repro.nn import DataLoader, SGD, TrainConfig, Trainer
from repro.utils.tabulate import format_table


def main(seed: int = 0, fast: bool = False) -> None:
    rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ data
    per_class = (8, 6) if fast else (30, 20)
    train_ds, test_ds = make_classification_split(
        SyntheticCIFAR10,
        train_per_class=per_class[0],
        test_per_class=per_class[1],
        seed=seed,
        noise_std=0.5,
    )
    train_loader = DataLoader(train_ds, batch_size=32, shuffle=True, rng=seed)
    test_loader = DataLoader(test_ds, batch_size=32)
    input_shape = train_ds.input_shape

    # ------------------------------------------------------- 1. pretrain CNN
    model_name = "tinyconv_tiny" if fast else "tinyconv"
    model = create_model(model_name, num_classes=10, in_channels=3, rng=seed)
    print(f"Pretraining {model_name} on the synthetic CIFAR-10 substitute ...")
    trainer = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9))
    trainer.fit(train_loader, TrainConfig(epochs=1 if fast else 4))
    baseline_acc = evaluate_accuracy(model, test_loader)
    print(f"  float accuracy: {baseline_acc:.1%}")

    # ----------------------------------------------- 2. weight-pool compress
    print("Compressing with a 64-entry z-dimension weight pool (group size 8) ...")
    result = compress_model(
        model, input_shape, pool_size=64, policy=CompressionPolicy(group_size=8), seed=seed
    )
    print(f"  compressed layers: {result.compressed_layers}")
    print(f"  kept uncompressed: {result.skipped_layers}")

    # --------------------------------------------------------- 3. fine-tune
    print("Fine-tuning the index assignment (forward reassigns, backward updates) ...")
    finetune_compressed_model(result.model, train_loader, epochs=1 if fast else 2, lr=0.01)
    pool_acc = evaluate_accuracy(result.model, test_loader)
    print(f"  weight-pool accuracy: {pool_acc:.1%}")

    storage = analyze_model_storage(result.model, input_shape, pool=result.pool, index_bitwidth=8)
    print(
        f"  storage: {storage.compressed_bytes / 1024:.1f} KiB "
        f"(compression ratio {storage.compression_ratio:.2f}x, "
        f"LUT overhead {storage.lut_overhead:.1%})"
    )

    # --------------------------- 4. compile + execute the network program
    rows = []
    for act_bits in (8, 4):
        engine = BitSerialInferenceEngine(
            result.model,
            result.pool,
            EngineConfig(
                activation_bitwidth=act_bits,
                lut_bitwidth=8,
                calibration_batches=2,
                opt_level="O2",  # graph passes + arena plan
            ),
        )
        engine.calibrate(train_loader)
        program = engine.compile()
        if act_bits == 8:
            print(
                f"  compiled program: {len(program.ops)} ops "
                f"({program.count('bitserial_conv') + program.count('bitserial_linear')}"
                f" bit-serial, {program.count('requantize')} requantize-fused, "
                f"{program.count('batchnorm')} BN left unfolded)"
            )
            print(format_pipeline_report(program))
        acc = engine.evaluate(test_loader)
        wp_latency = estimate_weight_pool_network(
            result.model,
            input_shape,
            MC_LARGE,
            BitSerialKernelConfig(pool_size=64, activation_bitwidth=act_bits),
        ).latency_seconds
        rows.append([f"{act_bits}-bit activations", f"{acc:.1%}", f"{wp_latency:.2f} s"])

    cmsis_latency = estimate_cmsis_network(model, input_shape, MC_LARGE).latency_seconds
    rows.append(["CMSIS int8 baseline", f"{baseline_acc:.1%}", f"{cmsis_latency:.2f} s"])

    # ------------------------------------------------------------- 5. report
    print()
    print(
        format_table(
            rows,
            headers=["configuration", "accuracy", "estimated MC-large latency"],
            title="Bit-serial weight-pool deployment summary",
        )
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="tiny-scale smoke run (used by CI): smaller model, data, epochs",
    )
    args = parser.parse_args()
    main(seed=args.seed, fast=args.fast)
