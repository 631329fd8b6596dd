import struct

import numpy as np
import pytest

import ticketlab as tl
from ticketlab.data import FormatError, kmeans_objective, _kmeans, DSTL_MAGIC


def write_idx_fixture(tmp_path):
    """Two 3x3 images with pixel values 0, 128, 255, written byte by byte."""
    pixels = bytes([0, 128, 255, 0, 0, 0, 255, 255, 255,
                    128, 128, 128, 0, 255, 0, 128, 0, 255])
    images = struct.pack(">IIII", 0x00000803, 2, 3, 3) + pixels
    labels = struct.pack(">II", 0x00000801, 2) + bytes([1, 0])
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(images)
    lp.write_bytes(labels)
    return ip, lp


class TestIdx:
    def test_exact_pixels(self, tmp_path):
        ip, lp = write_idx_fixture(tmp_path)
        ds = tl.load_idx(ip, lp)
        assert ds.size == 2 and ds.examples.shape == (2, 3, 3)
        assert ds.examples[0, 0, 0] == 0.0
        assert ds.examples[0, 0, 1] == 128 / 255
        assert ds.examples[0, 0, 2] == 1.0
        assert list(ds.labels) == [1, 0]

    def test_label_magic_rejected_as_images(self, tmp_path):
        ip, lp = write_idx_fixture(tmp_path)
        with pytest.raises(FormatError, match="bad magic"):
            tl.load_idx(lp, ip)

    def test_truncated_file(self, tmp_path):
        ip, lp = write_idx_fixture(tmp_path)
        ip.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            tl.load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = write_idx_fixture(tmp_path)
        lp.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([1]))
        with pytest.raises(FormatError, match="counts differ"):
            tl.load_idx(ip, lp)

    def test_round_trip_bytes(self, tmp_path):
        ip, lp = write_idx_fixture(tmp_path)
        ds = tl.load_idx(ip, lp)
        ip2 = tmp_path / "images2.idx"
        lp2 = tmp_path / "labels2.idx"
        tl.write_idx(ds, ip2, lp2)
        assert ip2.read_bytes() == ip.read_bytes()
        assert lp2.read_bytes() == lp.read_bytes()

    def test_write_rejects_non_3d_images(self, tmp_path):
        ds = tl.LabeledDataset(np.zeros((2, 1, 3, 3)), np.array([0, 1]), 2)
        ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
        with pytest.raises(ValueError, match=r"\(N, H, W\)"):
            tl.write_idx(ds, ip, lp)
        assert not ip.exists() and not lp.exists()


class TestSynth:
    def test_noise_zero_collapses_to_means(self):
        ds = tl.synth_dataset("gaussianBlobs", 3, 5, 0.0, seed=0)
        for c in range(3):
            pts = ds.examples[ds.labels == c]
            assert np.allclose(pts, pts[0])
            assert np.isclose(np.linalg.norm(pts[0]), 3.0)

    def test_deterministic(self):
        a = tl.synth_dataset("gaussianBlobs", 2, 10, 0.3, seed=5)
        b = tl.synth_dataset("gaussianBlobs", 2, 10, 0.3, seed=5)
        assert np.array_equal(a.examples, b.examples)

    def test_blobs_linearly_separable(self):
        ds = tl.synth_dataset("gaussianBlobs", 2, 100, 0.1, seed=0)
        spec = tl.ModelSpec("mlp", (2,), 2, hidden=())
        params = tl.init_params(spec, 0)
        mask = tl.SparsityMask.ones(params.layer_map)
        out = tl.train(spec, params, mask, ds,
                       tl.TrainConfig(epochs=10, learning_rate=0.1, momentum=0.9))
        acc, _ = tl.evaluate(spec, out, mask, ds)
        assert acc == 1.0

    def test_spirals_shape_and_balance(self):
        ds = tl.synth_dataset("spirals", 3, 20, 0.05, seed=1)
        assert ds.size == 60
        assert list(ds.class_counts()) == [20, 20, 20]

    def test_high_dim_blobs_share_geometry_across_seeds(self):
        a = tl.synth_dataset("gaussianBlobs", 2, 50, 0.0, seed=0,
                             input_shape=(1, 4, 4))
        b = tl.synth_dataset("gaussianBlobs", 2, 50, 0.0, seed=9,
                             input_shape=(1, 4, 4))
        assert np.allclose(a.examples[0], b.examples[0])


class TestDistillers:
    @pytest.fixture
    def dataset(self):
        return tl.synth_dataset("gaussianBlobs", 3, 20, 0.4, seed=2)

    def test_random_full_class_is_identity(self, dataset):
        dsyn = tl.distill_random(dataset, ipc=20, seed=0)
        for c in range(3):
            orig = np.sort(dataset.examples[dataset.labels == c], axis=0)
            got = np.sort(dsyn.examples[dsyn.labels == c], axis=0)
            assert np.array_equal(orig, got)

    def test_random_balance_and_determinism(self, dataset):
        a = tl.distill_random(dataset, ipc=4, seed=3)
        b = tl.distill_random(dataset, ipc=4, seed=3)
        assert list(a.class_counts()) == [4, 4, 4]
        assert np.array_equal(a.examples, b.examples)
        assert a.provenance == "random" and a.ipc == 4

    def test_random_ipc_too_large(self, dataset):
        with pytest.raises(ValueError):
            tl.distill_random(dataset, ipc=21, seed=0)

    def test_class_mean_identical_images(self):
        x = np.tile(np.array([[0.3, 0.7]]), (5, 1))
        ds = tl.LabeledDataset(x, np.zeros(5, dtype=int), 1)
        dsyn = tl.distill_class_mean(ds)
        assert np.allclose(dsyn.examples[0], [0.3, 0.7])

    def test_class_mean_midpoint(self):
        ds = tl.LabeledDataset(np.array([[0.0], [1.0]]), np.zeros(2, dtype=int), 1)
        assert tl.distill_class_mean(ds).examples[0, 0] == 0.5

    def test_class_mean_matches_independent_average(self, dataset):
        dsyn = tl.distill_class_mean(dataset)
        for c in range(3):
            # brute-force per-coordinate average
            members = dataset.examples[dataset.labels == c]
            avg = np.array([members[:, j].sum() / len(members)
                            for j in range(members.shape[1])])
            assert np.allclose(dsyn.examples[c], avg)

    def test_herding_ipc1_equals_class_mean(self, dataset):
        a = tl.distill_kmeans_herding(dataset, ipc=1, seed=0)
        b = tl.distill_class_mean(dataset)
        assert np.allclose(a.examples, b.examples)

    def test_herding_full_class_is_permutation(self):
        ds = tl.synth_dataset("gaussianBlobs", 2, 5, 0.5, seed=4)
        dsyn = tl.distill_kmeans_herding(ds, ipc=5, iterations=3, seed=0)
        for c in range(2):
            orig = {tuple(p) for p in ds.examples[ds.labels == c]}
            got = {tuple(np.round(p, 12)) for p in dsyn.examples[dsyn.labels == c]}
            orig = {tuple(np.round(np.array(p), 12)) for p in orig}
            assert got == orig

    def test_herding_one_dimensional_case(self):
        ds = tl.LabeledDataset(np.array([[0.0], [0.1], [0.9], [1.0]]),
                               np.zeros(4, dtype=int), 1)
        dsyn = tl.distill_kmeans_herding(ds, ipc=2, iterations=20, seed=0)
        centers = sorted(dsyn.examples[:, 0])
        assert np.allclose(centers, [0.05, 0.95])

    def test_herding_objective_non_increasing(self, dataset):
        points = dataset.examples[dataset.labels == 0]
        rng = np.random.default_rng(0)
        prev = None
        for iters in range(1, 8):
            centers = _kmeans(points, 3, iters, np.random.default_rng(0))
            obj = kmeans_objective(points, centers)
            if prev is not None:
                assert obj <= prev + 1e-9
            prev = obj

    def test_herding_deterministic(self, dataset):
        a = tl.distill_kmeans_herding(dataset, ipc=3, seed=5)
        b = tl.distill_kmeans_herding(dataset, ipc=3, seed=5)
        assert np.array_equal(a.examples, b.examples)


class TestDstlFormat:
    @pytest.fixture
    def dsyn(self):
        ds = tl.synth_dataset("gaussianBlobs", 3, 10, 0.2, seed=6,
                              input_shape=(1, 4, 4))
        return tl.distill_kmeans_herding(ds, ipc=2, seed=0)

    def test_round_trip(self, tmp_path, dsyn):
        path = tmp_path / "d.dstl"
        tl.save_distilled(dsyn, path)
        loaded = tl.load_distilled(path)
        assert loaded.num_classes == 3 and loaded.ipc == 2
        assert loaded.provenance == "kmeansHerding"
        # float payload survives a second save byte-exactly
        path2 = tmp_path / "d2.dstl"
        tl.save_distilled(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert np.array_equal(loaded.examples,
                              dsyn.examples.astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path, dsyn):
        path = tmp_path / "d.dstl"
        tl.save_distilled(dsyn, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bad magic"):
            tl.load_distilled(path)

    def test_version_mismatch(self, tmp_path, dsyn):
        path = tmp_path / "d.dstl"
        tl.save_distilled(dsyn, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            tl.load_distilled(path)

    def test_truncation(self, tmp_path, dsyn):
        path = tmp_path / "d.dstl"
        tl.save_distilled(dsyn, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="truncated"):
            tl.load_distilled(path)

    def test_independent_writer(self, tmp_path):
        """A from-scratch writer following the published byte layout must
        produce a file this package loads identically."""
        num_classes, ipc, dims = 2, 2, (3,)
        images = np.arange(num_classes * ipc * 3, dtype="<f4").reshape(4, 3) / 10
        labels = np.array([0, 0, 1, 1], dtype="<u2")
        blob = b"DSTL"
        blob += struct.pack("<IIII", 1, num_classes, ipc, len(dims))
        blob += struct.pack("<I", dims[0])
        blob += struct.pack("<B", 3)  # external
        blob += images.tobytes()
        blob += labels.tobytes()
        path = tmp_path / "ext.dstl"
        path.write_bytes(blob)
        loaded = tl.load_distilled(path)
        assert loaded.provenance == "external"
        assert np.array_equal(loaded.examples, images.astype(np.float64))
        assert list(loaded.labels) == [0, 0, 1, 1]
        # and our writer reproduces the same bytes
        out = tmp_path / "ours.dstl"
        tl.save_distilled(loaded, out)
        assert out.read_bytes() == blob
