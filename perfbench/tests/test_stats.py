import pytest

from stats import percentile


def test_reports_sample_count_and_tail():
    values = list(range(1, 1001))
    p = percentile(values, 99)
    assert p.samples == 1000
    assert p.beyond == 10
    assert p.value == pytest.approx(990.01)


def test_median_interpolates():
    assert percentile([4, 1, 3, 2], 50).value == 2.5
    assert percentile([7], 99) == (7, 1, 0)


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)
