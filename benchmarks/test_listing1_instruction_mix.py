"""Listing 1: useful-compute fraction of the base vs SARIS point loop."""

from repro.analysis import format_table
from repro.sweep.artifacts import build_listing1


def test_listing1_instruction_mix():
    artifact = build_listing1()
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    result = artifact["data"]
    # Shape checks: SARIS roughly halves the loop length and raises the
    # useful-compute fraction well above the baseline's.
    assert result["saris"]["total"] < result["base"]["total"]
    assert result["saris"]["fraction"] > result["base"]["fraction"] + 0.15
    assert 0.25 <= result["base"]["fraction"] <= 0.50
    assert 0.50 <= result["saris"]["fraction"] <= 0.75
