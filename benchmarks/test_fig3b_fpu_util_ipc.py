"""Figure 3b: FPU utilization and per-core IPC for both variants."""

from repro.analysis import format_table
from repro.core.kernels import TABLE1_KERNELS
from repro.sweep.artifacts import build_fig3b


def test_fig3b_fpu_util_and_ipc(paper_runs):
    artifact = build_fig3b(paper_runs)
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    data = artifact["data"]["per_kernel"]
    aggregates = artifact["data"]["geomean"]
    # Shape checks: SARIS reaches near-ideal utilization, the baseline does not.
    assert 0.25 <= aggregates["base_util"] <= 0.55
    assert 0.65 <= aggregates["saris_util"] <= 0.95
    for name in TABLE1_KERNELS:
        assert data[name]["saris_util"] > data[name]["base_util"]
        assert data[name]["saris_util"] >= 0.60, f"{name}: saris utilization too low"
    # The baseline of register-bound codes is the weakest (paper Section 3.1).
    assert data["j3d27pt"]["base_util"] < data["box2d1r"]["base_util"]
