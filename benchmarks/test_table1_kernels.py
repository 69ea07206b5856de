"""Table 1: implemented stencil codes and their per-point characteristics."""

from repro.analysis import format_table
from repro.sweep.artifacts import build_table1


def test_table1_characteristics(paper_runs):
    artifact = build_table1(paper_runs)
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    for name, entry in artifact["data"].items():
        assert entry["measured"] == entry["paper"], (
            f"{name}: characteristics deviate from Table 1")
