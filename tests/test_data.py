from __future__ import annotations

import io

import numpy as np
import pytest

import epdtail as et
from epdtail.data import DataFormatError


class TestLoadSample:
    def test_sorts_input(self):
        s = et.load_sample(b"3\n1\n2\n")
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])

    def test_column_selection(self):
        s = et.load_sample(b"1,a\n2,b", column=0)
        assert np.array_equal(s.values, [1.0, 2.0])

    def test_nonpositive_reports_line(self):
        with pytest.raises(DataFormatError, match="nonpositive value at line 1"):
            et.load_sample(b"-1\n2\n")

    def test_nonpositive_after_header(self):
        with pytest.raises(DataFormatError, match="line 3"):
            et.load_sample(b"value\n2\n0\n3\n")

    def test_header_autodetected(self):
        s = et.load_sample(b"loss\n1.5\n0.5\n")
        assert np.array_equal(s.values, [0.5, 1.5])

    def test_header_with_column(self):
        s = et.load_sample(b"date,loss\nx,2\ny,1\n", column=1)
        assert np.array_equal(s.values, [1.0, 2.0])

    def test_parse_failure_reports_line(self):
        with pytest.raises(DataFormatError, match="line 3"):
            et.load_sample(b"1\n2\nounce\n")

    def test_nan_rejected(self):
        with pytest.raises(DataFormatError, match="line 2"):
            et.load_sample(b"1\nnan\n2\n")

    @pytest.mark.parametrize("first", ["inf", "-inf", "nan", "Infinity", " NaN "])
    def test_non_finite_first_value_is_data_not_a_header(self, first):
        # it parses as a float, so it is no header: it used to be skipped as one,
        # and a file of inf, 1.5, 2 loaded as 1.5, 2
        with pytest.raises(DataFormatError, match="non-finite value at line 1"):
            et.load_sample(f"{first}\n1.5\n2\n".encode())

    def test_non_finite_value_reports_its_line(self):
        with pytest.raises(DataFormatError, match="non-finite value at line 3"):
            et.load_sample(b"\n\ninf\n2\n3\n")
        with pytest.raises(DataFormatError, match="non-finite value at line 2"):
            et.load_sample(b"loss\n-inf\n2\n3\n")
        with pytest.raises(DataFormatError, match="non-finite value at line 1"):
            et.load_sample(b"x,inf\ny,2\nz,3\n", column=1)

    def test_too_few_values(self):
        with pytest.raises(DataFormatError, match="at least 2"):
            et.load_sample(b"7\n")

    def test_missing_column(self):
        with pytest.raises(DataFormatError, match="column 3"):
            et.load_sample(b"1,2\n3,4\n", column=3)

    @pytest.mark.parametrize("column", [-1, -5])
    def test_negative_column_rejected_before_reading(self, tmp_path, column):
        # a negative index would count the fields from the end
        with pytest.raises(ValueError, match="column must be >= 0") as info:
            et.load_sample(tmp_path / "never_read.csv", column=column)
        assert type(info.value) is ValueError

    def test_file_and_stream_sources(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("2\n1\n4\n")
        assert np.array_equal(et.load_sample(path).values, [1.0, 2.0, 4.0])
        assert np.array_equal(et.load_sample(io.StringIO("2\n1\n")).values, [1.0, 2.0])

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM, which made the first value
        # unparsable, so that it was taken for a header and dropped
        raw = b"\xef\xbb\xbf1.5\n2.5\n3.5\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        for source in (path, str(path), raw, io.BytesIO(raw), io.StringIO(raw.decode("utf-8"))):
            assert et.load_sample(source).values.tolist() == [1.5, 2.5, 3.5]
        assert et.load_sample(b"\xef\xbb\xbfloss\n2.5\n3.5\n").values.tolist() == [2.5, 3.5]

    def test_bytes_that_are_not_utf8_are_a_data_error(self, tmp_path):
        # a stray Latin-1 byte ended in a UnicodeDecodeError, which the CLI did not catch
        raw = b"loss\n1.5\n2.5\xff\n3.5\n"
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        for source in (path, str(path), raw, io.BytesIO(raw)):
            with pytest.raises(DataFormatError, match="not UTF-8 text"):
                et.load_sample(source)

    def test_blank_lines_skipped(self):
        s = et.load_sample(b"\n1\n\n2\n\n")
        assert s.n == 2


class TestSortedSample:
    def test_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            et.SortedSample([1.0, -2.0])

    def test_requires_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            et.SortedSample([1.0])

    def test_values_read_only(self):
        s = et.SortedSample([2.0, 1.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_threshold(self):
        s = et.SortedSample([8, 1, 4, 2])
        assert [s.threshold(k) for k in (1, 2, 3)] == [4.0, 2.0, 1.0]


# every reader of the threshold at k, with the other arguments valid: x = 30 lies above every value
THRESHOLD_READERS = {
    "weissman": lambda s, k: et.weissman_tail_prob(s, k, 30.0, 0.5),
    "epd": lambda s, k: et.epd_tail_prob(s, k, 30.0, et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)),
    "bayes": lambda s, k: et.bayes_tail_prob(s, k, 30.0, et.BayesEstimate(0.5, 0.1, "linear"), -1.0),
    "excesses": et.excesses,
    "threshold": et.SortedSample.threshold,
}


@pytest.mark.parametrize("k", [20, 25, 0, -3])
@pytest.mark.parametrize("reader", THRESHOLD_READERS)
def test_threshold_readers_reject_k_out_of_range(reader, k):
    # k = 20 read the largest of 20 values as the threshold, and k = -3 raised an IndexError
    with pytest.raises(ValueError, match=rf"k must be in \[1, 19\], got {k}"):
        THRESHOLD_READERS[reader](et.SortedSample(np.arange(1.0, 21.0)), k)


class TestExcesses:
    def test_basic(self):
        s = et.SortedSample([1, 2, 4, 8])
        e = et.excesses(s, 3)
        assert np.array_equal(e.y, [8.0, 4.0, 2.0])
        assert e.threshold == 1.0

    def test_k_one(self):
        e = et.excesses(et.SortedSample([1, 2, 4, 8]), 1)
        assert np.array_equal(e.y, [2.0])
        assert e.threshold == 4.0

    def test_ties_give_unit_excesses(self):
        e = et.excesses(et.SortedSample([5, 5, 5]), 2)
        assert np.array_equal(e.y, [1.0, 1.0])
        assert e.threshold == 5.0

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="k must be"):
            et.excesses(et.SortedSample([1, 2, 4, 8]), k)

    @pytest.mark.parametrize("seed", range(5))
    def test_excesses_are_valid(self, seed):
        rng = np.random.default_rng(seed)
        s = et.SortedSample(rng.pareto(2.0, size=60) + 1.0)
        for k in (1, 10, 59):
            e = et.excesses(s, k)
            assert e.y.min() >= 1.0
            assert np.all(e.y[:-1] >= e.y[1:])

    @pytest.mark.parametrize("c", [2.0, 0.5, 1024.0])
    def test_scale_invariance_exact_binary_scalings(self, c):
        rng = np.random.default_rng(11)
        raw = rng.pareto(1.5, size=40) + 1.0
        e1 = et.excesses(et.SortedSample(raw), 17)
        e2 = et.excesses(et.SortedSample(c * raw), 17)
        assert np.array_equal(e1.y, e2.y)

    def test_scale_invariance_general_scaling(self):
        rng = np.random.default_rng(12)
        raw = rng.pareto(1.5, size=40) + 1.0
        e1 = et.excesses(et.SortedSample(raw), 17)
        e2 = et.excesses(et.SortedSample(np.pi * raw), 17)
        np.testing.assert_allclose(e2.y, e1.y, rtol=5e-16)
