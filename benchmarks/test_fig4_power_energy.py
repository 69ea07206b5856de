"""Figure 4: cluster power consumption and SARIS energy-efficiency gain."""

from repro.analysis import format_table
from repro.core.kernels import TABLE1_KERNELS
from repro.sweep.artifacts import build_fig4


def test_fig4_power_and_energy_efficiency(paper_runs):
    artifact = build_fig4(paper_runs)
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    data = artifact["data"]["per_kernel"]
    aggregates = artifact["data"]["geomean"]
    # Shape checks: SARIS burns more power but wins on energy for every code.
    for name in TABLE1_KERNELS:
        assert data[name]["saris_power_w"] > data[name]["base_power_w"]
        assert data[name]["energy_efficiency_gain"] > 1.0
    assert 0.15 <= aggregates["base_power_w"] <= 0.35
    assert 0.30 <= aggregates["saris_power_w"] <= 0.55
    assert 1.1 <= aggregates["gain"] <= 2.5
