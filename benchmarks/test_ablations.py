"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify the contribution of individual
SARIS ingredients on representative kernels:

* FREP hardware loop on vs off (pseudo-dual-issue),
* balanced SR0/SR1 partitioning vs the degenerate all-on-one-stream mapping
  (approximated by comparing stream balance and utilization),
* unrolling / block size of the SARIS point loop,
* the step-3 policy (stream the output stores vs stream the coefficients).

All simulations run through the shared sweep engine (see the session-scoped
``ablation_runs`` fixture); the tables are built by the same artifact
builders the ``repro reproduce`` CLI uses.
"""

from repro.analysis import format_table
from repro.sweep.artifacts import ABLATION_BLOCKS, build_ablations


def _artifact(ablation_runs, paper_runs, title_prefix):
    artifacts = build_ablations(ablation_runs, paper_runs)
    for artifact in artifacts:
        if artifact["title"].startswith(title_prefix):
            return artifact
    raise AssertionError(f"no ablation artifact titled {title_prefix!r}")


def test_ablation_frep(ablation_runs, paper_runs):
    artifact = _artifact(ablation_runs, paper_runs,
                         "Ablation: FREP")
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    with_frep = artifact["data"]["with_frep"]
    without = artifact["data"]["without_frep"]
    assert with_frep.correct and without.correct
    assert with_frep.cycles <= without.cycles
    assert with_frep.fpu_util >= without.fpu_util - 0.02


def test_ablation_unroll(ablation_runs, paper_runs):
    artifact = _artifact(ablation_runs, paper_runs,
                         "Ablation: SARIS block size")
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    results = artifact["data"]
    assert set(results) == set(ABLATION_BLOCKS)
    for r in results.values():
        assert r.correct
    assert results[16].cycles < results[1].cycles
    assert results[16].fpu_util > results[1].fpu_util


def test_ablation_sr2_policy(ablation_runs, paper_runs):
    artifact = _artifact(ablation_runs, paper_runs,
                         "Ablation: role of the remaining affine stream")
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    stores_streamed = artifact["data"]["stores"]
    coeffs_streamed = artifact["data"]["coeffs"]
    assert stores_streamed.correct and coeffs_streamed.correct
    # With few coefficients, streaming the stores is the better policy — this
    # is exactly why step 3 of the method prefers it when registers suffice.
    assert stores_streamed.cycles <= coeffs_streamed.cycles * 1.1


def test_ablation_stream_balance(ablation_runs, paper_runs):
    artifact = _artifact(ablation_runs, paper_runs,
                         "Ablation: stream partition balance")
    print("\n" + format_table(artifact["columns"], artifact["rows"],
                              title=artifact["title"]))
    # Step 2 of the method requires near-balanced utilization of SR0 and SR1.
    for name, (balance, _util) in artifact["data"].items():
        assert balance >= 0.7, f"{name}: unbalanced stream partition"
