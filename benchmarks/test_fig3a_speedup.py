"""Figure 3a: execution speedup of saris over base code variants."""

from repro.analysis import format_table, geomean
from repro.core.kernels import TABLE1_KERNELS
from repro.sweep.artifacts import build_fig3a


def test_fig3a_speedup(paper_runs):
    artifact = build_fig3a(paper_runs)
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    speedups = artifact["data"]["speedups"]
    measured_geomean = artifact["data"]["geomean"]
    # Shape checks.
    assert all(s > 1.2 for s in speedups.values()), "SARIS must win on every kernel"
    assert 1.5 <= measured_geomean <= 4.0
    # The register-bound codes (most FLOPs/point) must show the largest gains.
    assert speedups["j3d27pt"] > speedups["jacobi_2d"]
    assert speedups["box3d1r"] > geomean(
        [speedups[n] for n in TABLE1_KERNELS[:6]])
