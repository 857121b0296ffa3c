"""Loader round-trips against hand-built byte fixtures and known tables."""

import gzip
import warnings

import numpy as np
import pytest

from deepkm.clustering import kmeans
from deepkm.data import (
    Dataset,
    IdxFormatError,
    concat_datasets,
    load_delimited,
    load_idx,
    make_blobs,
    save_idx,
)
from deepkm.metrics import accuracy
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

    def test_take_bounds(self):
        ds = Dataset(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ds.take(0)
        with pytest.raises(ValueError):
            ds.take(3)

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan, 0.0]]))

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
        back = load_idx(imgs, labs)
        assert np.abs(back.features - ds.features).max() <= 0.5 / 255 + 1e-12
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_explicit_height_width(self, tmp_path):
        ds = Dataset(np.zeros((2, 6)))
        save_idx(ds, tmp_path / "r.idx", height=2, width=3)
        back = load_idx(tmp_path / "r.idx")
        assert back.m == 6

    def test_non_square_without_dims_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not square"):
            save_idx(Dataset(np.zeros((2, 6))), tmp_path / "r.idx")

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


class TestConcat:
    def test_stacks_rows_and_labels(self):
        a = Dataset(np.zeros((2, 3)), labels=[0, 1])
        b = Dataset(np.ones((3, 3)), labels=[1, 0, 1])
        joined = concat_datasets([a, b])
        assert joined.n == 5
        assert joined.labels.tolist() == [0, 1, 1, 0, 1]

    def test_missing_labels_anywhere_drops_labels(self):
        a = Dataset(np.zeros((2, 3)), labels=[0, 1])
        b = Dataset(np.ones((1, 3)))
        assert concat_datasets([a, b]).labels is None

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
        acc, _ = accuracy(best.labels, ds.labels)
        assert acc == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_blobs(0, 2, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_blobs(1, 2, 2, -1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_blobs(1, 2, 2, 1.0, -0.1, seed=0)
