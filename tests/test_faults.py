"""Tests for the deterministic fault-injection harness (repro.sweep.faults)."""

import os

import pytest

from repro.sweep import SweepJob
from repro.sweep.faults import (
    DEFAULT_HANG_SECONDS,
    FAULT_ENV_VAR,
    FaultConfigError,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    active_injector,
    injected,
    maybe_inject,
)
from repro.sweep import faults as faults_mod
from tests.conftest import small_tile


def small_job(kernel="jacobi_2d", variant="saris", **kwargs):
    return SweepJob.make(kernel, variant, tile_shape=small_tile(kernel),
                         **kwargs)


class TestSpecParsing:
    def test_full_spec_round_trip(self):
        spec = FaultSpec.parse("kernel=jacobi_2d:variant=saris:mode=flaky:n=2")
        assert spec == FaultSpec(mode="flaky", kernel="jacobi_2d",
                                 variant="saris", n=2)

    def test_mode_only_is_a_wildcard(self):
        spec = FaultSpec.parse("mode=raise")
        assert spec.kernel is None and spec.variant is None and spec.seed is None

    def test_numeric_fields(self):
        spec = FaultSpec.parse("mode=hang:seed=3:hang_seconds=1.5")
        assert spec.seed == 3 and spec.hang_seconds == 1.5
        assert FaultSpec.parse("mode=hang").hang_seconds == DEFAULT_HANG_SECONDS

    def test_missing_mode_rejected(self):
        with pytest.raises(FaultConfigError, match="missing mode"):
            FaultSpec.parse("kernel=gemm")

    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultConfigError, match="mode must be one of"):
            FaultSpec.parse("mode=explode")

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown key"):
            FaultSpec.parse("mode=raise:color=red")

    def test_malformed_pair_rejected(self):
        with pytest.raises(FaultConfigError, match="key=value"):
            FaultSpec.parse("mode=raise:oops")

    def test_bad_engine_filter_rejected(self):
        with pytest.raises(FaultConfigError, match="engine filter"):
            FaultSpec(mode="raise", engine="cuda")

    def test_multi_spec_injector(self):
        injector = FaultInjector.parse(
            "mode=raise:kernel=jacobi_2d; mode=flaky:kernel=j2d5pt:n=3")
        assert len(injector.specs) == 2
        assert injector.specs[1].n == 3

    def test_empty_injector_rejected(self):
        with pytest.raises(FaultConfigError, match="no fault specs"):
            FaultInjector.parse(" ; ")


class TestMatching:
    def test_filters_apply(self):
        spec = FaultSpec(mode="raise", kernel="jacobi_2d", variant="saris")
        assert spec.matches(small_job())
        assert not spec.matches(small_job(variant="base"))
        assert not spec.matches(small_job(kernel="j2d5pt"))

    def test_seed_filter(self):
        spec = FaultSpec(mode="raise", seed=7)
        assert spec.matches(small_job(seed=7))
        assert not spec.matches(small_job(seed=0))

    def test_engine_native_filter_skips_forced_python(self):
        from repro.snitch import native

        spec = FaultSpec(mode="raise", engine="native")
        assert spec.matches(small_job())
        with native.forced_python():
            assert not spec.matches(small_job())


class TestFiring:
    def test_no_injector_is_a_noop(self):
        assert active_injector() is None
        maybe_inject(small_job())  # must not raise

    def test_raise_mode(self):
        with injected(FaultSpec(mode="raise", kernel="jacobi_2d")):
            with pytest.raises(InjectedFault, match="injected failure"):
                maybe_inject(small_job())
            maybe_inject(small_job(kernel="j2d5pt"))  # non-matching: clean

    def test_flaky_counts_attempts(self):
        with injected(FaultSpec(mode="flaky", kernel="jacobi_2d", n=2)):
            for attempt in (1, 2):
                with pytest.raises(InjectedFault, match="flaky"):
                    maybe_inject(small_job(), attempt=attempt)
            maybe_inject(small_job(), attempt=3)  # succeeds past n

    def test_hang_is_bounded_and_raises(self):
        with injected(FaultSpec(mode="hang", kernel="jacobi_2d",
                                hang_seconds=0.05)):
            with pytest.raises(InjectedFault, match="hang"):
                maybe_inject(small_job())

    def test_segfault_degrades_to_raise_in_process(self):
        # Outside a pool worker the injected segfault must NOT kill the
        # interpreter (the test session!) — it degrades to InjectedFault.
        with injected(FaultSpec(mode="segfault", kernel="jacobi_2d")):
            with pytest.raises(InjectedFault, match="segfault"):
                maybe_inject(small_job())

    def test_installed_injector_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "mode=raise")
        with injected(FaultSpec(mode="raise", kernel="no_such_kernel")):
            maybe_inject(small_job())  # installed spec does not match: clean

    def test_env_injector_parsed_and_memoized(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "mode=raise:kernel=jacobi_2d")
        assert active_injector() is active_injector()
        with pytest.raises(InjectedFault):
            maybe_inject(small_job())
        monkeypatch.delenv(FAULT_ENV_VAR)
        assert active_injector() is None

    def test_first_matching_spec_wins(self):
        with injected(FaultSpec(mode="flaky", kernel="jacobi_2d", n=1),
                      FaultSpec(mode="raise", kernel="jacobi_2d")):
            maybe_inject(small_job(), attempt=2)  # flaky satisfied, stops


class TestNodeFaults:
    """Fabric-level modes: worker_kill, lease_stall, net_drop + the
    cross-process at-most-n token accounting behind them."""

    def test_node_mode_specs_parse(self):
        for mode in ("worker_kill", "lease_stall", "net_drop"):
            spec = FaultSpec.parse(f"mode={mode}:n=3")
            assert spec.mode == mode and spec.n == 3

    def test_worker_kill_degrades_to_raise_in_parent(self, monkeypatch):
        # Never a real os._exit outside a worker process: the test session
        # must survive a misconfigured env.
        monkeypatch.delenv(faults_mod.STATE_ENV_VAR, raising=False)
        monkeypatch.setattr(faults_mod, "_LOCAL_TOKENS", {})
        with injected(FaultSpec(mode="worker_kill", kernel="jacobi_2d")):
            with pytest.raises(InjectedFault, match="worker kill"):
                maybe_inject(small_job())
            # The single token is spent: the next firing runs clean.
            maybe_inject(small_job())

    def test_protocol_modes_are_inert_inside_jobs(self, monkeypatch):
        monkeypatch.delenv(faults_mod.STATE_ENV_VAR, raising=False)
        with injected(FaultSpec(mode="lease_stall"),
                      FaultSpec(mode="net_drop")):
            maybe_inject(small_job())  # must not raise, sleep or exit

    def test_claim_node_fault_checks_mode_and_match(self, monkeypatch):
        monkeypatch.delenv(faults_mod.STATE_ENV_VAR, raising=False)
        monkeypatch.setattr(faults_mod, "_LOCAL_TOKENS", {})
        with pytest.raises(FaultConfigError):
            faults_mod.claim_node_fault("raise")
        assert faults_mod.claim_node_fault("net_drop") is None  # inactive
        with injected(FaultSpec(mode="lease_stall", kernel="j2d5pt")):
            assert faults_mod.claim_node_fault("lease_stall",
                                               small_job()) is None
            spec = faults_mod.claim_node_fault("lease_stall",
                                               small_job(kernel="j2d5pt"))
            assert spec is not None and spec.mode == "lease_stall"

    def test_state_dir_tokens_are_claimed_at_most_n_times(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv(faults_mod.STATE_ENV_VAR, str(tmp_path))
        spec = FaultSpec(mode="worker_kill", n=2)
        assert faults_mod.claim_fault_token(spec) is True
        assert faults_mod.claim_fault_token(spec) is True
        assert faults_mod.claim_fault_token(spec) is False  # exhausted
        fired = sorted(p.name for p in tmp_path.iterdir())
        assert fired == ["worker_kill-1.fired", "worker_kill-2.fired"]
        # The claim is per-spec-identity: a differently-filtered spec has
        # its own token pool in the same directory.
        other = FaultSpec(mode="worker_kill", kernel="jacobi_2d")
        assert faults_mod.claim_fault_token(other) is True
        assert faults_mod.claim_fault_token(other) is False

    def test_state_dir_tokens_hold_across_processes(self, monkeypatch,
                                                    tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        monkeypatch.setenv(faults_mod.STATE_ENV_VAR, str(tmp_path))
        child = (
            "from repro.sweep.faults import FaultSpec, claim_fault_token\n"
            "print(claim_fault_token(FaultSpec(mode='worker_kill')))\n"
        )
        repo_root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"),
                   **{faults_mod.STATE_ENV_VAR: str(tmp_path)})
        outputs = []
        for _ in range(3):
            outputs.append(subprocess.run(
                [sys.executable, "-c", child], env=env, cwd=str(repo_root),
                capture_output=True, text=True, timeout=60).stdout.strip())
        # n=1: exactly one process across the fleet wins the token.
        assert sorted(outputs) == ["False", "False", "True"]
