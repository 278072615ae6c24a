"""Host normalisation divides by the median of the probes nearest in time."""

from array import array

import numpy as np
import pytest

from perfbench.hostprobe import HOT_PROBES, HOT_WARMUP, HostProbe, drift, hot_median_ms


def _probe_with(ends, durations):
    probe = HostProbe()
    probe.ends, probe.durations = array("d", ends), array("d", durations)
    return probe


def test_factor_uses_the_local_median():
    # A slow phase (1.2 ms probes) between two phases at the reference speed.
    durations = [0.6e-3] * 50 + [1.2e-3] * 50 + [0.6e-3] * 50
    probe = _probe_with(np.arange(150.0), durations)
    f = probe.factors([10.0, 75.0, 140.0])
    assert f == pytest.approx([1.0, 0.5, 1.0])


def test_one_outlier_probe_does_not_move_the_factor():
    durations = [0.6e-3] * 60
    durations[30] = 50e-3
    probe = _probe_with(np.arange(60.0), durations)
    assert probe.factors([30.0]) == pytest.approx([1.0])


def test_instants_before_the_first_probe_use_the_first_window():
    probe = _probe_with([5.0, 6.0, 7.0], [0.3e-3, 0.3e-3, 0.3e-3])
    assert probe.factors([0.0, 100.0]) == pytest.approx([2.0, 2.0])


def test_probe_records_one_duration_per_call():
    probe = HostProbe()
    probe()
    probe()
    assert len(probe.durations) == len(probe.ends) == 2
    assert all(d > 0.0 for d in probe.durations)
    assert probe.ends[0] < probe.ends[1]


def test_drift_flags_a_whole_process_slowdown():
    steady = drift(0.6, 0.66)
    assert steady["probe_drift"] == pytest.approx(1.1)
    assert steady["probe_drift_flag"] is False
    assert drift(0.6, 1.5)["probe_drift_flag"] is True
    assert drift(0.6, 0.25)["probe_drift_flag"] is True


def test_hot_median_drops_the_warm_up_probes(monkeypatch):
    calls = iter([1.0] * HOT_WARMUP + [0.6e-3] * (HOT_PROBES - HOT_WARMUP))

    def fake(self):
        self.durations.append(next(calls))

    monkeypatch.setattr(HostProbe, "__call__", fake)
    assert hot_median_ms() == pytest.approx(0.6)
