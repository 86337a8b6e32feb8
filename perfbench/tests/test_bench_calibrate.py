"""Op times are scaled by the calibration samples taken while the op ran."""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402
import run  # noqa: E402

REF = calibrate.REF_CPU_S
PERIOD = calibrate.PERIOD_S


def test_kernel_closes_sl2_13():
    assert calibrate.kernel() == 13 * (13 * 13 - 1)


def test_factors_use_the_samples_while_the_op_ran():
    # the host at reference speed, then twice as slow from t = 10 on
    samples = [(t * PERIOD, REF) for t in range(50)]
    samples += [(t * PERIOD, 2 * REF) for t in range(50, 100)]
    assert calibrate.factor(samples, 1.0, 8.0) == pytest.approx(1.0)
    assert calibrate.factor(samples, 12.0, 18.0) == pytest.approx(0.5)
    # an op shorter than the sampling period still gets the samples next to it
    assert calibrate.factor(samples, 15.01, 15.02) == pytest.approx(0.5)
    # one spanning the change gets the mean kernel time
    assert calibrate.factor(samples, 9.0, 10.8) == pytest.approx(REF / (1.5 * REF))
    # past the last sample: the nearest one
    assert calibrate.factor(samples, 30.0, 31.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibrate.factor([], 0.0, 1.0)


def test_run_reports_scaled_and_raw_pass_times():
    result = run.Run()
    result.calibration = [(t * PERIOD, 2 * REF) for t in range(60)]
    result.record("a", 1.0, 2.0, 1.0, None)
    result.record("a", 4.0, 4.0, 3.0, None)
    result.record("b", 9.0, 1.0, 1.0, None)
    assert result.raw_pass_s() == pytest.approx(3.0 + 1.0)
    assert result.raw_pass_s(1) == pytest.approx(2.0 + 1.0)
    assert result.pass_s() == pytest.approx((3.0 + 1.0) / 2)
    assert result.pass_s(1) == pytest.approx((2.0 + 1.0) / 2)


def test_monitor_samples_and_stops(tmp_path):
    cpus = os.sched_getaffinity(0)
    with calibrate.Monitor(tmp_path / "cal.txt", 30.0) as monitor:
        proc = monitor.proc
        calibrate.kernel()
    assert proc.returncode is not None
    assert os.sched_getaffinity(0) == cpus
    assert monitor.samples and all(len(s) == 2 and s[1] > 0 for s in monitor.samples)
