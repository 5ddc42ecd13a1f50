import math

import pytest

import stats


def test_tail_leaves_at_least_ten_samples_beyond():
    for n in range(40, 3001):
        beyond = n - 1 - stats.tail_index(n)
        assert beyond >= 10
        if n < 1000:
            assert beyond == 10  # the highest such percentile
        else:
            assert stats.tail_index(n) == math.ceil(0.99 * n) - 1  # p99


def test_tail_examples():
    assert stats.tail_index(45) == 34
    assert round(100 * (stats.tail_index(45) + 1) / 45, 1) == 77.8  # the README's p77.8
    assert stats.tail_index(1000) == 989
    assert stats.tail_index(1200) == 1187  # p99: 12 samples beyond
    assert stats.tail(list(range(45, 0, -1))) == 35


def test_too_few_samples_have_no_tail():
    with pytest.raises(ValueError):
        stats.tail_index(39)


def test_quartile_spread_is_a_share_of_the_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)
