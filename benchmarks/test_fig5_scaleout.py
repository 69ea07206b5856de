"""Figure 5: FPU utilization, speedup and CMTR on the Manticore-256s scaleout."""

from repro.analysis import format_table
from repro.sweep.artifacts import build_fig5


def test_fig5_manycore_scaleout(paper_runs):
    artifact = build_fig5(paper_runs)
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    data = artifact["data"]["per_kernel"]
    aggregates = artifact["data"]["aggregates"]

    # Shape checks.
    low_intensity = ["jacobi_2d", "j2d5pt"]
    high_intensity = ["box3d1r", "j3d27pt"]
    for name in low_intensity:
        assert data[name]["memory_bound"], f"{name} should be memory-bound at scale"
    for name in high_intensity:
        assert not data[name]["memory_bound"], f"{name} should stay compute-bound"
    # The 3D halo effect pushes star3d2r / ac_iso_cd back toward memory-boundedness.
    assert data["star3d2r"]["cmtr"] < data["star2d3r"]["cmtr"]
    assert data["ac_iso_cd"]["memory_bound"]
    # SARIS still delivers a clear aggregate win and a sensible peak throughput.
    assert aggregates["speedup"] > 1.2
    assert 200.0 <= aggregates["peak_gflops"] <= 512.0
    assert 0.35 <= aggregates["saris_util"] <= 0.9
