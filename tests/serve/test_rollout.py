"""Deterministic tests for staged canary rollout and rollback.

The controller is pure bookkeeping (no threads, no clocks, a credit-based
router instead of an RNG), so the unit tests assert *exact* routing counts
and stage transitions.  The integration tests run real rollouts through
:class:`~repro.serve.server.InferenceServer`: a healthy canary promotes, a
shape-incompatible canary (manufactured by rewriting the artifact header)
fails every routed request and auto-rolls-back, and publishing a canary
under LRU-cache pressure never breaks the stable arm's in-flight pipelines.
"""

import json

import numpy as np
import pytest

from repro.serve import (
    BatchPolicy,
    InferenceServer,
    ModelRepository,
    RolloutController,
    RolloutPolicy,
)


def make(stages=(0.5, 1.0), min_requests=3, **overrides) -> RolloutController:
    policy = RolloutPolicy(
        stages=stages, min_requests_per_stage=min_requests, **overrides
    )
    return RolloutController("m", stable=1, canary=2, policy=policy)


def settle(controller: RolloutController, version: int, *,
           error: bool = False, latency_ms: float = 10.0) -> str:
    controller.record(version, error=error, latency_ms=latency_ms)
    return controller.evaluate()


# ---------------------------------------------------------------------------
# Policy + construction validation
# ---------------------------------------------------------------------------
class TestRolloutPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RolloutPolicy(stages=())
        with pytest.raises(ValueError):
            RolloutPolicy(stages=(0.5, 0.25))  # not increasing
        with pytest.raises(ValueError):
            RolloutPolicy(stages=(0.0, 1.0))  # zero weight
        with pytest.raises(ValueError):
            RolloutPolicy(stages=(0.5, 1.5))  # over 1
        with pytest.raises(ValueError):
            RolloutPolicy(min_requests_per_stage=0)
        with pytest.raises(ValueError):
            RolloutPolicy(max_error_rate=0.0)
        with pytest.raises(ValueError):
            RolloutPolicy(min_failures=0)

    def test_canary_must_differ_from_stable(self):
        with pytest.raises(ValueError):
            RolloutController("m", stable=3, canary=3)


# ---------------------------------------------------------------------------
# The credit router: exact, deterministic proportions
# ---------------------------------------------------------------------------
class TestCreditRouter:
    @pytest.mark.parametrize("weight,expected", [(0.05, 5), (0.25, 25), (0.5, 50)])
    def test_exact_canary_share_over_100_requests(self, weight, expected):
        controller = make(stages=(weight,), min_requests=10**9)
        routes = [controller.route() for _ in range(100)]
        assert routes.count(2) == expected

    def test_routing_is_identical_on_every_run(self):
        assert (
            [make(stages=(0.3,), min_requests=10**9).route() for _ in range(50)]
            == [make(stages=(0.3,), min_requests=10**9).route() for _ in range(50)]
        )

    def test_canary_requests_are_evenly_spread_not_bunched(self):
        controller = make(stages=(0.25,), min_requests=10**9)
        canary_positions = [
            i for i in range(20) if controller.route() == 2
        ]
        assert canary_positions == [3, 7, 11, 15, 19]  # every 4th request

    def test_full_weight_routes_everything_to_the_canary(self):
        controller = make(stages=(1.0,), min_requests=10**9)
        assert [controller.route() for _ in range(5)] == [2] * 5


# ---------------------------------------------------------------------------
# Staged advancement and promotion
# ---------------------------------------------------------------------------
class TestStagedPromotion:
    def test_advances_on_canary_evidence_only(self):
        controller = make(stages=(0.5, 1.0), min_requests=3)
        # Stable settles never advance the stage, however many there are.
        for _ in range(10):
            assert settle(controller, 1) == "canary"
        assert controller.stage_index == 0
        for _ in range(2):
            settle(controller, 2)
        assert controller.stage_index == 0  # 2 < min_requests_per_stage
        settle(controller, 2)
        assert controller.stage_index == 1  # dwell satisfied → next stage
        assert controller.weight() == 1.0

    def test_promotes_after_the_final_stage(self):
        controller = make(stages=(0.5, 1.0), min_requests=2)
        while controller.state == "canary":
            settle(controller, controller.route())
        assert controller.state == "promoted"
        assert controller.weight() == 1.0
        assert [controller.route() for _ in range(4)] == [2] * 4
        history = controller.snapshot()["history"]
        assert [h["event"] for h in history] == ["start", "advance", "promoted"]

    def test_stage_dwell_resets_between_stages(self):
        controller = make(stages=(0.5, 1.0), min_requests=2)
        settle(controller, 2)
        settle(controller, 2)  # advance to stage 1
        assert controller.stage_index == 1
        settle(controller, 2)  # one settle at the new stage: not promoted yet
        assert controller.state == "canary"
        settle(controller, 2)
        assert controller.state == "promoted"


# ---------------------------------------------------------------------------
# Rollback guardrails
# ---------------------------------------------------------------------------
class TestRollback:
    def test_error_ceiling_rolls_back_after_min_failures(self):
        controller = make(min_requests=100, max_error_rate=0.1, min_failures=3)
        settle(controller, 2, error=True)
        settle(controller, 2, error=True)
        assert controller.state == "canary"  # grace: one short of min_failures
        state = settle(controller, 2, error=True)
        assert state == "rolled_back"
        assert "ceiling" in controller.reason
        assert controller.weight() == 0.0
        assert [controller.route() for _ in range(4)] == [1] * 4

    def test_relative_margin_rolls_back_a_meaningfully_worse_canary(self):
        controller = make(
            min_requests=100, max_error_rate=0.9,
            error_rate_margin=0.05, min_failures=3,
        )
        for _ in range(20):
            settle(controller, 1)  # stable: clean
        for _ in range(7):
            settle(controller, 2)
        for _ in range(3):
            state = settle(controller, 2, error=True)
        # canary 3/10 = 30% vs stable 0% + 5% margin → rolled back (the 30%
        # is under the 90% absolute ceiling, so only the margin can trip).
        assert state == "rolled_back"
        assert "exceeds stable" in controller.reason

    def test_erroring_stable_raises_the_bar_for_the_canary(self):
        controller = make(
            min_requests=100, max_error_rate=0.9,
            error_rate_margin=0.05, min_failures=3,
        )
        for i in range(20):
            settle(controller, 1, error=(i % 2 == 0))  # stable at 50%
        for _ in range(7):
            settle(controller, 2)
        for _ in range(3):
            settle(controller, 2, error=True)
        # The same 3/10 canary that rolled back against a clean stable above
        # survives here: 30% is no regression relative to a 50% stable.
        assert controller.state == "canary"

    def test_latency_regression_rolls_back(self):
        controller = make(min_requests=5, latency_factor=2.0)
        for _ in range(20):
            settle(controller, 1, latency_ms=10.0)
        for _ in range(4):
            settle(controller, 2, latency_ms=100.0)
        assert controller.state == "canary"  # not enough latency samples yet
        state = settle(controller, 2, latency_ms=100.0)
        assert state == "rolled_back"
        assert "latency" in controller.reason

    def test_latency_gate_needs_samples_from_both_arms(self):
        controller = make(stages=(0.5, 0.9, 1.0), min_requests=2, latency_factor=2.0)
        # No stable latency at all: the canary cannot be judged against it,
        # so it advances stages instead of tripping a spurious rollback.
        for _ in range(4):
            settle(controller, 2, latency_ms=500.0)
        assert controller.state == "canary"
        assert controller.stage_index == 2

    def test_terminal_states_freeze_the_controller(self):
        controller = make(min_requests=2)
        controller.abort("operator said no")
        assert controller.state == "rolled_back"
        for _ in range(10):
            settle(controller, 2)  # evidence after the fact changes nothing
        assert controller.state == "rolled_back"
        assert controller.abort() == "rolled_back"  # idempotent

    def test_abort_after_promotion_is_a_no_op(self):
        controller = make(stages=(1.0,), min_requests=1)
        settle(controller, 2)
        assert controller.state == "promoted"
        assert controller.abort() == "promoted"

    def test_unknown_version_records_are_ignored(self):
        controller = make(min_requests=100, min_failures=1, max_error_rate=0.01)
        settle(controller, 99, error=True)  # a pinned request outside the rollout
        assert controller.state == "canary"
        assert controller.snapshot()["arms"].keys() == {"1", "2"}

    def test_snapshot_shape(self):
        controller = make()
        snap = controller.snapshot()
        assert snap["model"] == "m"
        assert (snap["stable"], snap["canary"]) == (1, 2)
        assert snap["state"] == "canary"
        assert snap["weight"] == 0.5
        assert snap["stages"] == [0.5, 1.0]
        assert snap["arms"]["1"]["requests"] == 0
        assert snap["history"][0]["event"] == "start"


# ---------------------------------------------------------------------------
# Integration: real rollouts through the server
# ---------------------------------------------------------------------------
def publish_incompatible_canary(repo: ModelRepository, served, tmp_path) -> None:
    """Publish a v2 whose program loads cleanly but declares a different
    input shape — every request routed to it fails shape validation, the
    deterministic stand-in for a canary build that errors on real traffic."""
    with np.load(served.artifact, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays["__program__"]))
    meta["input_shape"] = [3, 16, 16]
    arrays["__program__"] = np.array(json.dumps(meta))
    bad = tmp_path / "incompatible.npz"
    np.savez_compressed(bad, **arrays)
    repo.publish_artifact(bad, "resnet_s")


def fast_server(repo, **kwargs) -> InferenceServer:
    return InferenceServer(
        repo, policy=BatchPolicy(max_batch_size=1, max_delay_ms=0.0), **kwargs
    )


class TestServerRollout:
    def test_healthy_canary_promotes_through_the_stages(self, repo, served):
        repo.publish_artifact(served.artifact, "resnet_s")  # v2 = same program
        with fast_server(repo) as server:
            controller = server.start_rollout(
                "resnet_s",
                policy=RolloutPolicy(stages=(0.5, 1.0), min_requests_per_stage=3),
            )
            assert (controller.stable, controller.canary) == (1, 2)
            assert server.serving() == [("resnet_s", 1), ("resnet_s", 2)]
            outputs = []
            for i in range(100):
                outputs.append(
                    server.predict("resnet_s", served.batch[0], timeout=120.0)
                )
                if server.rollout_status("resnet_s")["state"] == "promoted":
                    break
            status = server.rollout_status("resnet_s")
            assert status["state"] == "promoted"
            assert status["weight"] == 1.0
            # Both arms served real traffic, identically (same program).
            assert status["arms"]["1"]["requests"] > 0
            assert status["arms"]["2"]["requests"] >= 6  # 3 per stage × 2 stages
            assert status["arms"]["1"]["errors"] == 0
            assert status["arms"]["2"]["errors"] == 0
            for out in outputs:
                np.testing.assert_allclose(
                    out, served.expected[0], rtol=1e-9, atol=1e-12
                )
            # Post-promotion traffic all routes to the canary version.
            version, _, _ = server.predict_request("resnet_s", served.batch[0])
            assert version == 2
            assert server.health()["control_plane"]["rollouts"]["resnet_s"][
                "state"
            ] == "promoted"
            server.end_rollout("resnet_s")
            assert server.rollout_status("resnet_s") is None

    def test_erroring_canary_rolls_back_automatically(self, repo, served, tmp_path):
        publish_incompatible_canary(repo, served, tmp_path)
        with fast_server(repo) as server:
            server.start_rollout(
                "resnet_s",
                policy=RolloutPolicy(
                    stages=(0.5, 1.0), min_requests_per_stage=4,
                    max_error_rate=0.1, min_failures=3,
                ),
            )
            failures = 0
            for _ in range(20):
                try:
                    server.predict("resnet_s", served.batch[0], timeout=120.0)
                except ValueError:
                    failures += 1  # routed to the shape-incompatible canary
                if server.rollout_status("resnet_s")["state"] == "rolled_back":
                    break
            status = server.rollout_status("resnet_s")
            assert status["state"] == "rolled_back"
            assert "error rate" in status["reason"]
            assert failures >= 3  # exactly the min_failures evidence bar
            # After the rollback every unversioned request succeeds on stable.
            for _ in range(5):
                version, out, _ = server.predict_request(
                    "resnet_s", served.batch[0]
                )
                assert version == 1
                np.testing.assert_allclose(
                    out, served.expected[0], rtol=1e-9, atol=1e-12
                )
            history = [h["event"] for h in status["history"]]
            assert history[-1] == "rolled_back"

    def test_second_rollout_waits_for_the_first(self, repo, served):
        repo.publish_artifact(served.artifact, "resnet_s")
        with fast_server(repo) as server:
            server.start_rollout("resnet_s")
            with pytest.raises(ValueError, match="already in progress"):
                server.start_rollout("resnet_s")
            server.abort_rollout("resnet_s", "clearing the deck")
            assert server.rollout_status("resnet_s")["state"] == "rolled_back"
            # A terminal rollout no longer blocks starting a fresh one.
            repo.publish_artifact(served.artifact, "resnet_s")  # v3
            controller = server.start_rollout("resnet_s")
            assert (controller.stable, controller.canary) == (2, 3)

    def test_rollout_needs_a_stable_version_below_the_canary(self, repo):
        with fast_server(repo) as server:
            with pytest.raises(ValueError, match="no stable version"):
                server.start_rollout("resnet_s")  # only v1 exists

    def test_explicit_version_pins_bypass_the_rollout_router(self, repo, served, tmp_path):
        publish_incompatible_canary(repo, served, tmp_path)
        with fast_server(repo) as server:
            server.start_rollout(
                "resnet_s",
                policy=RolloutPolicy(
                    stages=(1.0,), min_requests_per_stage=4, min_failures=3
                ),
            )
            # Pinned requests to stable succeed and are never counted as
            # rollout evidence — the canary arm stays untouched.
            for _ in range(6):
                out = server.predict(
                    "resnet_s", served.batch[0], version=1, timeout=120.0
                )
                np.testing.assert_allclose(
                    out, served.expected[0], rtol=1e-9, atol=1e-12
                )
            status = server.rollout_status("resnet_s")
            assert status["state"] == "canary"
            assert status["arms"]["1"]["requests"] == 0
            assert status["arms"]["2"]["requests"] == 0


class TestRolloutUnderCachePressure:
    def test_canary_publish_never_breaks_stable_inflight_pipelines(
        self, tmp_path, served
    ):
        """Satellite (c): a capacity-1 LRU means building the canary pipeline
        *must* evict the stable program from the cache — with stable requests
        still waiting in the batch window.  The stable pipeline holds its own
        program reference, so eviction is invisible to in-flight traffic and
        both versions keep serving."""
        repo = ModelRepository(tmp_path / "repo", capacity=1)
        repo.publish_artifact(served.artifact, "resnet_s")
        repo.publish_artifact(served.artifact, "resnet_s")  # v2 (canary-to-be)
        server = InferenceServer(
            repo, policy=BatchPolicy(max_batch_size=4, max_delay_ms=60_000)
        )
        with server:
            # Two stable requests parked in the forming batch window.
            inflight = [
                server.predict_async("resnet_s", served.batch[i], version=1)
                for i in range(2)
            ]
            evictions_before = repo.evictions
            server.start_rollout("resnet_s")  # builds the canary pipeline
            assert repo.evictions > evictions_before  # the pressure was real
            assert server.serving() == [("resnet_s", 1), ("resnet_s", 2)]
            # Flush the stable batch; the evicted cache entry must not matter.
            inflight += [
                server.predict_async("resnet_s", served.batch[i], version=1)
                for i in range(2, 4)
            ]
            outs = np.stack([f.result(timeout=120.0) for f in inflight])
            np.testing.assert_allclose(
                outs, served.expected[:4], rtol=1e-9, atol=1e-12
            )
            # Both versions answer pinned traffic after the eviction churn.
            # Each gets a full batch, so neither waits out the 60 s window.
            for version in (1, 2):
                futures = [
                    server.predict_async("resnet_s", served.batch[i], version=version)
                    for i in range(4, 8)
                ]
                outs = np.stack([f.result(timeout=120.0) for f in futures])
                np.testing.assert_allclose(
                    outs, served.expected[4:8], rtol=1e-9, atol=1e-12
                )
