"""Loader round-trips against hand-built byte fixtures and known tables."""

import gzip
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deepkm import data
from deepkm.clustering import kmeans
from deepkm.data import (
    Dataset,
    IdxFormatError,
    concat_datasets,
    integer_labels,
    load_delimited,
    load_idx,
    load_labels,
    make_blobs,
    save_idx,
)
from deepkm.metrics import evaluate
from helpers import idx_images_bytes, idx_labels_bytes


@pytest.fixture
def tiny_images():
    # 3 images of 2x2, chosen so scaled values are exact binary fractions
    return np.array(
        [
            [[0, 255], [51, 102]],
            [[255, 255], [255, 255]],
            [[0, 0], [0, 0]],
        ],
        dtype=np.uint8,
    )


class TestDataset:
    def test_basic_properties(self):
        ds = Dataset(np.zeros((4, 3)), labels=[0, 1, 0, 1], name="t")
        assert ds.n == 4 and ds.m == 3
        assert ds.labels.dtype == np.int64

    def test_take_preserves_order_and_labels(self):
        ds = Dataset(np.arange(12.0).reshape(6, 2), labels=[0, 1, 2, 0, 1, 2])
        head = ds.take(3)
        assert head.n == 3
        np.testing.assert_array_equal(head.features, ds.features[:3])
        assert head.labels.tolist() == [0, 1, 2]
        assert ds.take(np.int64(3)).name == head.name

    def test_take_bounds(self):
        ds = Dataset(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ds.take(0)
        with pytest.raises(ValueError):
            ds.take(3)

    @pytest.mark.parametrize("n", [True, 2.5, np.float64(1.0), "1", None])
    def test_take_rejects_a_non_integer_count_by_name(self, n):
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            ds.take(n)

    def test_rejects_nonfinite_features(self, tmp_path):
        with pytest.raises(ValueError, match="row 0, column 0 is nan$"):
            Dataset(np.array([[np.nan, 0.0]]))
        features = np.zeros((3, 4))
        features[1, 2], features[2, 0] = -np.inf, np.nan
        with pytest.raises(ValueError, match="row 1, column 2 is -inf$"):
            Dataset(features)
        csv = tmp_path / "t.csv"
        csv.write_text("1,2\n3,1e400\n")
        with pytest.raises(ValueError, match="non-finite values: row 1, column 1 is inf$"):
            load_delimited(csv)

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), labels=[0, 1])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), labels=[0, -1])

    def test_rejects_fractional_labels(self):
        # these were once truncated silently to [0, 1, 2]
        with pytest.raises(ValueError, match="entry 0 is 0.5"):
            Dataset(np.zeros((3, 2)), np.array([0.5, 1.7, 2.9]))
        with pytest.raises(ValueError, match="entry 2 is 2.5"):
            Dataset(np.zeros((3, 2)), np.array([0.0, 1.0, 2.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_labels(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning before the error
            with pytest.raises(ValueError, match="non-integer .*labels: entry 1 is"):
                Dataset(np.zeros((3, 2)), np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("bad", [1e19, -1e19, 2.0**63])
    def test_rejects_labels_beyond_int64_with_their_entry(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"labels beyond int64: entry 1 is {bad}")):
            Dataset(np.zeros((3, 2)), labels=np.array([0.0, bad, 1.0]))

    def test_rejects_uint64_labels_beyond_int64_with_their_entry(self):
        # 2**63 once wrapped to -2**63 and then read as "non-negative"
        big = np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)
        message = re.escape(f"labels beyond int64: entry 1 is {2**63}")
        with pytest.raises(ValueError, match=message):
            integer_labels(big)
        with pytest.raises(ValueError, match=message):
            Dataset(np.zeros((3, 2)), labels=big)
        top = np.array([0, 2**63 - 1], dtype=np.uint64)
        assert integer_labels(top).tolist() == [0, 2**63 - 1]

    def test_int64_range_ends_are_exact(self):
        assert integer_labels([-(2.0**63), 2.0**62]).tolist() == [-(2**63), 2**62]

    def test_accepts_integral_float_labels(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0.0, 2.0, 1.0]))
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 2, 1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 4)))


class TestLoadIdx:
    def test_pixels_scaled_and_flattened(self, tmp_path, tiny_images):
        p = tmp_path / "img.idx"
        p.write_bytes(idx_images_bytes(tiny_images))
        ds = load_idx(p)
        assert ds.features.shape == (3, 4)
        np.testing.assert_allclose(
            ds.features[0], [0.0, 1.0, 51 / 255, 102 / 255], atol=1e-15
        )
        assert ds.labels is None

    def test_labels_attached(self, tmp_path, tiny_images):
        imgs = tmp_path / "img.idx"
        labs = tmp_path / "lab.idx"
        imgs.write_bytes(idx_images_bytes(tiny_images))
        labs.write_bytes(idx_labels_bytes(np.array([7, 0, 3], dtype=np.uint8)))
        ds = load_idx(imgs, labs)
        assert ds.labels.tolist() == [7, 0, 3]

    def test_gzip_transparent(self, tmp_path, tiny_images):
        p = tmp_path / "img.idx.gz"
        p.write_bytes(gzip.compress(idx_images_bytes(tiny_images)))
        ds = load_idx(p)
        assert ds.n == 3
        np.testing.assert_allclose(ds.features[1], 1.0, atol=0)

    def test_bad_magic_names_offset(self, tmp_path, tiny_images):
        p = tmp_path / "img.idx"
        raw = bytearray(idx_images_bytes(tiny_images))
        raw[3] = 0x99
        p.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx(p)

    def test_truncated_data_names_offset(self, tmp_path, tiny_images):
        p = tmp_path / "img.idx"
        raw = idx_images_bytes(tiny_images)
        p.write_bytes(raw[:-5])
        with pytest.raises(IdxFormatError, match="truncated data"):
            load_idx(p)

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**32 - 1,) * 3])
    def test_huge_dimensions_are_truncated_data_at_their_true_size(self, tmp_path, dims):
        # both products pass 2**63, beyond int64
        p = tmp_path / "img.idx"
        header = b"".join(d.to_bytes(4, "big") for d in (0x00000803, *dims))
        p.write_bytes(header + bytes(8))
        want = f"truncated data, expected {dims[0] * dims[1] * dims[2]} bytes at offset 16, found 8"
        with pytest.raises(IdxFormatError, match=re.escape(want)):
            load_idx(p)

    def test_non_square_images_flatten_row_major(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes(idx_images_bytes(np.arange(12, dtype=np.uint8).reshape(2, 2, 3)))
        ds = load_idx(p)
        np.testing.assert_array_equal(ds.features * 255, np.arange(12.0).reshape(2, 6))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes((0x00000803).to_bytes(4, "big") + (3).to_bytes(4, "big"))
        with pytest.raises(IdxFormatError, match="truncated header"):
            load_idx(p)

    def test_label_count_mismatch(self, tmp_path, tiny_images):
        imgs = tmp_path / "img.idx"
        labs = tmp_path / "lab.idx"
        imgs.write_bytes(idx_images_bytes(tiny_images))
        labs.write_bytes(idx_labels_bytes(np.array([1, 2], dtype=np.uint8)))
        with pytest.raises(IdxFormatError, match="label count 2"):
            load_idx(imgs, labs)

    def test_images_magic_rejected_for_labels(self, tmp_path, tiny_images):
        imgs = tmp_path / "img.idx"
        imgs.write_bytes(idx_images_bytes(tiny_images))
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(imgs, imgs)


class TestSaveIdx:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(0, 1, size=(5, 9)), labels=rng.integers(0, 10, size=5))
        imgs = tmp_path / "out.idx"
        labs = tmp_path / "out-labels.idx"
        save_idx(ds, imgs, labs)
        header = imgs.read_bytes()[:16]
        assert [int.from_bytes(header[i:i + 4], "big") for i in range(0, 16, 4)] == [
            0x00000803, 5, 3, 3]  # square images
        back = load_idx(imgs, labs)
        assert np.abs(back.features - ds.features).max() <= 0.5 / 255 + 1e-12
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_non_square_without_dims_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^feature dim 6 is not square$"):
            save_idx(Dataset(np.zeros((2, 6))), tmp_path / "r.idx")
        assert list(tmp_path.iterdir()) == []

    def test_labels_require_labels(self, tmp_path):
        with pytest.raises(ValueError, match="no labels"):
            save_idx(Dataset(np.zeros((2, 4))), tmp_path / "a.idx", tmp_path / "b.idx")

    def test_labels_above_a_byte_rejected_before_writing(self, tmp_path):
        ds = Dataset(np.full((2, 4), 0.5), labels=np.array([7, 300]))
        with pytest.raises(ValueError, match="label 300 at row 1"):
            save_idx(ds, tmp_path / "a.idx", tmp_path / "b.idx")
        assert not (tmp_path / "a.idx").exists()
        assert not (tmp_path / "b.idx").exists()


class TestLoadDelimited:
    @pytest.mark.parametrize("kwargs, message", [
        ({"label_column": True}, "label_column must be an integer, got True"),
        ({"label_column": 1.0}, "label_column must be an integer, got 1.0"),
        ({"skip_header": -1}, "skip_header must be >= 0, got -1"),
        ({"skip_header": 1.5}, "skip_header must be an integer, got 1.5"),
        ({"skip_header": None}, "skip_header must be an integer, got None"),
    ])
    def test_bad_label_column_or_skip_header_rejected_by_name(self, tmp_path, kwargs, message):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,0\n2,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_delimited(p, **kwargs)

    def test_numpy_integer_label_column_and_skip_header_accepted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,0\n2,1\n")
        ds = load_delimited(p, label_column=np.int64(-1), skip_header=np.int32(1))
        assert ds.labels.tolist() == [0, 1]

    def test_plain_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        ds = load_delimited(p)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels is None

    def test_label_column_peeled(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_delimited(p, label_column=-1)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels.tolist() == [0, 1]

    def test_leading_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2,1.5\n0,2.5\n")
        ds = load_delimited(p, label_column=0)
        assert ds.labels.tolist() == [2, 0]
        np.testing.assert_array_equal(ds.features, [[1.5], [2.5]])

    def test_skip_header_and_blank_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n\n3,4\n")
        ds = load_delimited(p, skip_header=1)
        assert ds.n == 2

    def test_tab_delimiter(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("1\t2\n3\t4\n")
        ds = load_delimited(p, delimiter="\t")
        assert ds.features[1, 1] == 4.0

    def test_minmax_scaling(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,5\n10,5\n5,5\n")
        ds = load_delimited(p, minmax_scale=True)
        np.testing.assert_allclose(ds.features[:, 0], [0.0, 1.0, 0.5], atol=1e-15)
        # constant column maps to zero, not NaN
        np.testing.assert_allclose(ds.features[:, 1], 0.0, atol=0)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_delimited(p)

    def test_non_numeric_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_delimited(p)

    def test_non_integer_labels_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,0.5\n2.0,1.0\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_delimited(p, label_column=1)

    def test_infinite_label_rejected_with_its_entry(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,0\n2.0,1\n3.0,inf\n")
        with pytest.raises(ValueError, match="column -1: entry 2 is inf"):
            load_delimited(p, label_column=-1)

    def test_label_column_out_of_range(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n")
        with pytest.raises(ValueError, match="out of range"):
            load_delimited(p, label_column=5)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_delimited(p)

    def test_label_beyond_int64_names_its_entry(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0,0\n2.0,1e19\n")
        with pytest.raises(ValueError, match="column -1 beyond int64: entry 1 is 1e\\+19"):
            load_delimited(p, label_column=-1)

    def test_label_at_2_to_the_53_is_refused_not_merged(self, tmp_path):
        # both entries read as 9007199254740992 through the float64 table
        p = tmp_path / "t.csv"
        p.write_text("0.5,9007199254740993\n0.25,9007199254740992\n")
        message = f"labels in {p} column -1 reach 2^53, past which float64 merges integers: "
        with pytest.raises(ValueError, match=re.escape(message + "entry 0 reads 9007199254740992")):
            load_delimited(p, label_column=-1)
        p.write_text("0.5,1\n0.25,-9007199254740992\n")
        with pytest.raises(ValueError, match=re.escape(message + "entry 1 reads -9007199254740992")):
            load_delimited(p, label_column=-1)
        p.write_text("0.5,9007199254740991\n0.25,0\n")
        assert load_delimited(p, label_column=-1).labels.tolist() == [2**53 - 1, 0]

    def test_peak_memory_is_about_two_tables(self, tmp_path):
        # numpy's reader fills the table with no Python float per cell;
        # peeling the label column off copies the features once.
        p = tmp_path / "t.csv"
        rng = np.random.default_rng(0)
        table = rng.standard_normal((20000, 17))
        table[:, -1] = rng.integers(0, 10, 20000)
        np.savetxt(p, table, delimiter=",")
        load_delimited(p, label_column=-1)  # first-use imports are not the loader's
        tracemalloc.start()
        try:
            ds = load_delimited(p, label_column=-1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * table.nbytes
        np.testing.assert_array_equal(ds.features, table[:, :-1])

    @pytest.mark.parametrize("label_column", [0, 5, -1])
    def test_peeling_the_label_column_copies_no_table(self, tmp_path, label_column):
        # the features move within the table's buffer, one block of rows
        # at a time, so no second table-sized array is made
        p = tmp_path / "t.csv"
        rng = np.random.default_rng(1)
        table = rng.standard_normal((20000, 17))
        table[:, label_column] = rng.integers(0, 10, 20000)
        np.savetxt(p, table, delimiter=",")
        load_delimited(p, label_column=label_column)
        tracemalloc.start()
        try:
            ds = load_delimited(p, label_column=label_column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table.nbytes, peak / table.nbytes
        np.testing.assert_array_equal(ds.features, np.delete(table, label_column, axis=1))
        np.testing.assert_array_equal(ds.labels, table[:, label_column])
        assert ds.features.flags.c_contiguous and ds.features.dtype == np.float64

    @pytest.mark.parametrize("label_column", [None, -1])
    def test_minmax_scaling_rescales_in_place(self, tmp_path, label_column):
        # the rescale makes no table-sized temporary, and each value goes
        # through the same subtraction and division as (x - lo) / span
        p = tmp_path / "t.csv"
        rng = np.random.default_rng(2)
        features = rng.standard_normal((20000, 16))
        features[:, 3] = 0.25  # a constant column divides by 1
        table = features if label_column is None else np.column_stack(
            [features, rng.integers(0, 10, 20000)])
        np.savetxt(p, table, delimiter=",")
        load_delimited(p, label_column=label_column, minmax_scale=True)
        tracemalloc.start()
        try:
            ds = load_delimited(p, label_column=label_column, minmax_scale=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * features.nbytes, peak / features.nbytes
        lo = features.min(axis=0)
        span = features.max(axis=0) - lo
        span[span == 0.0] = 1.0
        np.testing.assert_array_equal(ds.features, (features - lo) / span)


def _load_outcome(path, **kwargs):
    """What load_delimited makes of a file, and that it warned nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_delimited(path, **kwargs)
            labels = None if ds.labels is None else ds.labels.tolist()
            outcome = ("table", ds.features.shape, ds.features.tobytes(), labels)
        except (ValueError, OSError) as exc:
            outcome = ("error", type(exc).__name__, str(exc))
    assert [str(w.message) for w in caught] == []
    return outcome


_EDGE_TABLES = {
    "blank lines": (b"1,2\n\n3,4\n\n", {}),
    "whitespace-only lines": (b"1,2\n   \n\t\n3,4\n", {}),
    "padded cells": (b" 1 , 2\t\n\t3,4 \n", {}),
    "skip_header then blank lines": (b"a,b\n\n\n1,2\n", {"skip_header": 1}),
    "skip_header over blank lines": (b"\n\na,b\n1,2\n", {"skip_header": 2}),
    "skip_header past the end": (b"a,b\n", {"skip_header": 3}),
    "empty file": (b"", {}),
    "only newlines": (b"\n\n", {}),
    "underscore digits": (b"1_0,2\n3,4\n", {}),
    "unicode digit": ("\uff11,2\n".encode(), {}),
    "inf and nan": (b"inf,nan\n-inf,-nan\n", {}),
    "1e400": (b"1e400,1\n", {}),
    "signed zeros": (b"-0.0,+0\n", {}),
    "quotes": (b'"1",2\n', {}),
    "comment line": (b"# note\n1,2\n", {}),
    "trailing comment": (b"1,2 # note\n", {}),
    "bom": (b"\xef\xbb\xbf1,2\n", {}),
    "trailing delimiter": (b"1,2,\n3,4,\n", {}),
    "ragged row": (b"1,2\n3\n", {}),
    "non-numeric cell": (b"1,2\n3,oops\n", {}),
    "cr only": (b"1,2\r3,4\r", {}),
    "crlf": (b"1,2\r\n3,4\r\n", {}),
    "tab": (b"1\t2\n3\t4\n", {"delimiter": "\t"}),
    "doubled tab": (b"1\t\t2\n", {"delimiter": "\t"}),
    "tab-led line": (b"\t1\t2\n3\t4\n", {"delimiter": "\t"}),
    "space": (b"1 2\n3 4\n", {"delimiter": " "}),
    "doubled space": (b"1  2\n3 4\n", {"delimiter": " "}),
    "space around a tab": (b"1 \t2\n3 4\n", {"delimiter": " "}),
    "two-character delimiter": (b"1;;2\n3;;4\n", {"delimiter": ";;"}),
    "one column": (b"1\n2\n3\n", {}),
    "one row": (b"1,2,3\n", {}),
    "ascii separator in a cell": (b"1\x1c,2\n", {}),
    "nul in a cell": (b"1\x00,2\n", {}),
    "label column": (b"1.5,0\n2.5,1\n", {"label_column": -1}),
    "label beyond int64": (b"1.5,0\n2.5,1e19\n", {"label_column": -1}),
}


class TestParsersAgree:
    """numpy's reader accepts a subset of what the per-line parser does,
    with the same values; everything else, errors included, is the
    per-line parser's."""

    @pytest.mark.parametrize("case", sorted(_EDGE_TABLES))
    def test_loader_equals_the_per_line_parser(self, case, tmp_path, monkeypatch):
        raw, kwargs = _EDGE_TABLES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        got = _load_outcome(path, **kwargs)
        monkeypatch.setattr(data, "_loadtxt_rows", lambda *args, **kw: None)
        assert got == _load_outcome(path, **kwargs)

    @pytest.mark.parametrize("case", sorted(_EDGE_TABLES))
    def test_tables_read_in_c_are_bit_identical(self, case, tmp_path):
        raw, kwargs = _EDGE_TABLES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        delimiter, skip = kwargs.get("delimiter", ","), kwargs.get("skip_header", 0)
        if not data._c_reader_agrees(path, delimiter):
            return
        fast = data._loadtxt_rows(path, delimiter=delimiter, skiprows=skip, ndmin=2)
        if fast is not None:
            slow = data._parse_lines(path, delimiter, skip, float, np.float64)
            assert (fast.shape, fast.tobytes()) == (slow.shape, slow.tobytes())

    def test_gzip_file_fails_as_before(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv.gz"
        path.write_bytes(gzip.compress(b"1,2\n3,4\n"))
        got = _load_outcome(path)
        assert got[:2] == ("error", "UnicodeDecodeError")
        monkeypatch.setattr(data, "_loadtxt_rows", lambda *args, **kw: None)
        assert got == _load_outcome(path)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.lists(st.builds(lambda m, e: m * 10.0**e,
                           st.floats(-10.0, 10.0), st.integers(-300, 300)),
                 min_size=cols, max_size=cols),
        min_size=1, max_size=8)))
    def test_repr_round_trip(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        want = np.array(rows, dtype=np.float64)
        got = load_delimited(path).features
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        assert got.tobytes() == data._parse_lines(path, ",", 0, float, np.float64).tobytes()


def _label_outcome(path):
    """What load_labels makes of a file, "PATH" standing for its path."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            labels = load_labels(path)
            return ("labels", labels.dtype, labels.tolist())
        except ValueError as exc:
            return ("error", str(exc).replace(str(path), "PATH"))


_INT64 = np.dtype(np.int64)

# Label file -> outcome, each as the command line's own reader gave it
# before label files moved to load_labels, but for the empty file's message.
_EDGE_LABEL_FILES = {
    "plain": ("0\n1\n2\n", ("labels", _INT64, [0, 1, 2])),
    "integral float": ("0\n3.0\n", ("error", "PATH: line 2: not an integer label: '3.0'")),
    "underscore digits": ("1_0\n2\n", ("labels", _INT64, [10, 2])),
    "padded ints": (" 3 \n007\n+2\n-0\n\t4\t\n", ("labels", _INT64, [3, 7, 2, 0, 4])),
    "int64 ends": ("9223372036854775807\n-9223372036854775808\n",
                   ("labels", _INT64, [2**63 - 1, -(2**63)])),
    "beyond int64": ("1\n99999999999999999999\n",
                     ("error", "PATH: line 2: label '99999999999999999999' is beyond int64")),
    "just beyond int64": ("9223372036854775808\n",
                          ("error", "PATH: line 1: label '9223372036854775808' is beyond int64")),
    "blank lines": ("1\n\n  \n2\n\n", ("labels", _INT64, [1, 2])),
    "empty file": ("", ("error", "PATH: no data rows")),
    "two per line": ("1 2\n3 4\n", ("error", "PATH: line 1: not an integer label: '1 2'")),
    "one row of three": ("1 2 3\n", ("error", "PATH: line 1: not an integer label: '1 2 3'")),
    "comma pair": ("1,2\n3,4\n", ("error", "PATH: line 1: not an integer label: '1,2'")),
    "ascii separator": ("1\x1c2\n3\n",
                        ("error", "PATH: line 1: not an integer label: '1\\x1c2'")),
    "ascii separators around": ("\x1c5\x1f\n6\n", ("labels", _INT64, [5, 6])),
    "trailing spaces": ("1  \n2 \t \n", ("labels", _INT64, [1, 2])),
    "unicode digit": ("\uff13\n", ("labels", _INT64, [3])),
    "word": ("0\nbanana\n", ("error", "PATH: line 2: not an integer label: 'banana'")),
}


@pytest.mark.parametrize("case", sorted(_EDGE_LABEL_FILES))
def test_label_file_loader_equals_the_per_line_parser(case, tmp_path, monkeypatch):
    text, want = _EDGE_LABEL_FILES[case]
    path = tmp_path / "labels.txt"
    path.write_text(text)
    assert _label_outcome(path) == want
    monkeypatch.setattr(data, "_loadtxt_rows", lambda *args, **kw: None)
    assert _label_outcome(path) == want


class TestConcat:
    def test_stacks_rows_and_labels(self):
        a = Dataset(np.zeros((2, 3)), labels=[0, 1])
        b = Dataset(np.ones((3, 3)), labels=[1, 0, 1])
        joined = concat_datasets([a, b])
        assert joined.n == 5
        assert joined.labels.tolist() == [0, 1, 1, 0, 1]

    def test_mixed_labels_rejected_naming_the_first_unlabelled_part(self):
        a = Dataset(np.zeros((2, 3)), labels=[0, 1], name="train")
        b = Dataset(np.ones((1, 3)), name="test")
        c = Dataset(np.ones((1, 3)), name="extra")
        for parts, where in (([a, b, c], "part 1 ('test')"), ([c, a], "part 0 ('extra')")):
            with pytest.raises(ValueError, match=re.escape(f"{where} has no labels")):
                concat_datasets(parts)

    def test_unlabelled_parts_stack_without_labels(self):
        b = Dataset(np.ones((1, 3)))
        joined = concat_datasets([b, Dataset(np.zeros((2, 3)))])
        assert joined.labels is None and joined.n == 3

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concat_datasets([Dataset(np.zeros((1, 2))), Dataset(np.zeros((1, 3)))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat_datasets([])


class TestMakeBlobs:
    def test_shapes_and_layout(self):
        ds = make_blobs(10, 3, 4, separation=5.0, noise_sigma=1.0, seed=0)
        assert ds.features.shape == (30, 4)
        assert ds.labels.tolist() == [0] * 10 + [1] * 10 + [2] * 10

    def test_deterministic(self):
        a = make_blobs(5, 2, 3, 4.0, 0.5, seed=42)
        b = make_blobs(5, 2, 3, 4.0, 0.5, seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        c = make_blobs(np.int64(5), np.int32(2), np.uint8(3), np.float64(4.0), 0.5, seed=42)
        assert c.name == a.name
        np.testing.assert_array_equal(c.features, a.features)
        np.testing.assert_array_equal(c.labels, a.labels)

    def test_zero_noise_collapses_clusters_onto_centers(self):
        ds = make_blobs(4, 3, 2, separation=3.0, noise_sigma=0.0, seed=1)
        for c in range(3):
            block = ds.features[4 * c : 4 * (c + 1)]
            assert np.ptp(block, axis=0).max() == 0.0

    def test_closest_center_pair_sits_at_separation(self):
        ds = make_blobs(1, 5, 3, separation=7.5, noise_sigma=0.0, seed=2)
        centers = ds.features
        diff = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diff**2).sum(axis=2))
        off_diag = dists[np.triu_indices(5, 1)]
        assert off_diag.min() == pytest.approx(7.5, rel=1e-12)

    def test_well_separated_blobs_are_trivially_clusterable(self):
        ds = make_blobs(30, 4, 5, separation=20.0, noise_sigma=1.0, seed=3)
        # best of a few restarts; a single unlucky init can still split a blob
        best = min((kmeans(ds.features, 4, seed=s) for s in range(5)),
                   key=lambda r: r.objective)
        acc = evaluate(best.labels, ds.labels).acc
        assert acc == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_blobs(0, 2, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_blobs(1, 2, 2, -1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_blobs(1, 2, 2, 1.0, -0.1, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 2, 3, 4.0, 1.0), "n_per_cluster must be an integer, got 2.5"),
        ((True, 2, 3, 4.0, 1.0), "n_per_cluster must be an integer, got True"),
        ((5, 2.0, 3, 4.0, 1.0), "k must be an integer, got 2.0"),
        ((5, 2, np.bool_(True), 4.0, 1.0), "dim must be an integer, got "),
        ((5, 2, 3, True, 1.0), "separation must be a real number, got True"),
        ((5, 2, 3, "4", 1.0), "separation must be a real number, got '4'"),
        ((5, 2, 3, 4.0, None), "noise_sigma must be a real number, got None"),
    ])
    def test_bad_argument_rejected_by_name(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make_blobs(*args, seed=0)

    @pytest.mark.parametrize("seed, message", [
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_bad_seed_rejected_by_name(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_blobs(5, 2, 3, 4.0, 1.0, seed=seed)

    def test_numpy_seed_names_the_dataset_as_an_int(self):
        assert make_blobs(5, 2, 3, 4.0, 1.0, seed=np.uint64(7)).name == "blobs(k=2,dim=3,seed=7)"
