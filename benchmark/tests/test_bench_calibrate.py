import time

import calibrate


def test_scale_is_the_reference_time_over_the_measured_median():
    c = calibrate.Calibration()
    c.samples = [0.002, 0.008, 0.004]
    assert c.scale() == calibrate.REFERENCE_S / 0.004


def test_measurements_are_spaced_by_the_interval():
    c = calibrate.Calibration()
    assert c.due()
    c.measure()
    assert len(c.samples) == 1 and c.samples[0] > 0
    assert not c.due()
    time.sleep(calibrate.INTERVAL_S)
    assert c.due()


def test_the_reference_does_fixed_work():
    assert calibrate.reference() == calibrate.reference()
