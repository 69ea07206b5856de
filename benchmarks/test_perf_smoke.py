"""The perf-smoke gate (``perf_smoke.check``) on synthetic reports.

No simulation runs here: each of the five checks is fed a number exactly
at its threshold, where it passes, and one just past it, where it fails
on its own.
"""

import copy
import math

import pytest

import perf_smoke

BASELINE = {"best_cycles_per_second": 1_600_000.0,
            "scaleout": {"cluster_cycles_per_second": 1_800_000.0}}

GATED_FRESH_KEYS = ("engines", "fold_speedup", "obs_overhead",
                    *perf_smoke.THROUGHPUT_KEYS)


def at_thresholds():
    """A fresh report that sits exactly on every threshold."""
    floor = perf_smoke.THROUGHPUT_FLOOR
    return {
        "engines": {"native": 68},
        "fold_speedup": perf_smoke.FOLD_SPEEDUP_FLOOR,
        "best_cycles_per_second": BASELINE["best_cycles_per_second"] * floor,
        "scaleout": {"cluster_cycles_per_second":
                     BASELINE["scaleout"]["cluster_cycles_per_second"]
                     * floor},
        "obs_overhead": perf_smoke.OBS_OVERHEAD_CEILING,
    }


def below(value):
    return math.nextafter(value, -math.inf)


def holder(report, key):
    """The dict that holds dotted ``key``, and the key's last part."""
    *parents, last = key.split(".")
    for part in parents:
        report = report[part]
    return report, last


def test_every_check_passes_exactly_at_its_threshold():
    assert perf_smoke.check(BASELINE, at_thresholds()) == []


@pytest.mark.parametrize("key, value", [
    ("engines", {"native": 67, "python": 1}),
    ("engines", {}),
    ("fold_speedup", below(perf_smoke.FOLD_SPEEDUP_FLOOR)),
    ("best_cycles_per_second",
     below(at_thresholds()["best_cycles_per_second"])),
    ("scaleout.cluster_cycles_per_second",
     below(at_thresholds()["scaleout"]["cluster_cycles_per_second"])),
    ("obs_overhead", math.nextafter(perf_smoke.OBS_OVERHEAD_CEILING,
                                    math.inf)),
])
def test_each_check_fails_alone_just_past_its_threshold(key, value):
    fresh = at_thresholds()
    report, name = holder(fresh, key)
    report[name] = value
    failures = perf_smoke.check(BASELINE, fresh)
    assert len(failures) == 1, failures


@pytest.mark.parametrize("key", GATED_FRESH_KEYS)
def test_a_key_missing_from_the_fresh_report_fails(key):
    fresh = at_thresholds()
    report, name = holder(fresh, key)
    del report[name]
    failures = perf_smoke.check(BASELINE, fresh)
    assert failures == [f"fresh report has no {key}"]


@pytest.mark.parametrize("key", perf_smoke.THROUGHPUT_KEYS)
def test_a_key_missing_from_the_baseline_fails(key):
    baseline = copy.deepcopy(BASELINE)
    report, name = holder(baseline, key)
    del report[name]
    failures = perf_smoke.check(baseline, at_thresholds())
    assert failures == [f"baseline report has no {key}"]


def test_a_missing_scaleout_section_fails_both_reports():
    fresh = at_thresholds()
    del fresh["scaleout"]
    failures = perf_smoke.check({"best_cycles_per_second": 1.0}, fresh)
    assert failures == [
        "baseline report has no scaleout.cluster_cycles_per_second",
        "fresh report has no scaleout.cluster_cycles_per_second"]
