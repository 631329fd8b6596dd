import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ticketlab as tl
from ticketlab import cli
from ticketlab.data import (FormatError, kmeans_objective, _kmeans, _kmeans_plus_plus,
                            DSTL_MAGIC)


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
        with pytest.raises(FormatError, match="truncated") as info:
            tl.load_idx(ip, lp)
        assert str(info.value) == f"truncated file while reading payload in {ip}"

    @pytest.mark.parametrize("which", [0, 1], ids=["images", "labels"])
    def test_trailing_bytes_rejected(self, tmp_path, which):
        paths = write_idx_fixture(tmp_path)
        paths[which].write_bytes(paths[which].read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            tl.load_idx(*paths)

    def test_count_mismatch(self, tmp_path):
        ip, lp = write_idx_fixture(tmp_path)
        lp.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([1]))
        with pytest.raises(FormatError, match="counts differ") as info:
            tl.load_idx(ip, lp)
        assert str(info.value).endswith(f": 2 in {ip}, 1 in {lp}")

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

    def test_write_rejects_labels_above_255(self, tmp_path):
        # a byte would keep 300 % 256 = 44, loaded back as class 44
        ds = tl.LabeledDataset(np.zeros((2, 3, 3)), np.array([0, 300]), 301)
        ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
        with pytest.raises(ValueError, match="255"):
            tl.write_idx(ds, ip, lp)
        assert not ip.exists() and not lp.exists()

    def test_write_peaks_under_one_and_a_half_inputs(self, tmp_path):
        # the images are scaled, rounded and clipped in one float buffer; as
        # three arrays they peaked at twice the input's bytes
        rng = np.random.default_rng(0)
        ds = tl.LabeledDataset(rng.uniform(-0.2, 1.2, (500, 16, 16)), np.zeros(500, int), 1)
        tracemalloc.start()
        try:
            tl.write_idx(ds, tmp_path / "images.idx", tmp_path / "labels.idx")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.examples.nbytes

    def test_empty_file_is_format_error(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 0, 3, 3))
        labels.write_bytes(struct.pack(">II", 0x00000801, 0))
        with pytest.raises(FormatError, match="non-empty"):
            tl.load_idx(images, labels)


class TestSynth:
    @pytest.mark.parametrize("args,broken", [
        (("circles", 2, 5, 0.1, 0, (2,)), ["kind"]),
        (("gaussianBlobs", 2, 0, 0.1, -1, (2,)), ["per_class", "seed"]),
        (("gaussianBlobs", 2, 5, float("nan"), 0, (2,)), ["noise"]),
        (("gaussianBlobs", 2, 5, 0.1, 0, (1,)), ["kind"]),
        (("spirals", 2, 5, 0.1, 0, (1, 2, 2)), ["kind"]),
        (("gaussianBlobs", 2, 5, 0.1, 0, (2, True)), ["input_shape"]),
        (("gaussianBlobs", 2.5, True, 0.1, 1.5, (2,)), ["num_classes", "per_class", "seed"]),
        (("gaussianBlobs", None, 5, None, 0, None), ["num_classes", "noise", "input_shape"]),
        # examples past numpy's largest array; the last case's 2**67 bytes are 0 in int64
        (("gaussianBlobs", 4, 10**18, 0.5, 0, (2,)), ["per_class"]),
        (("gaussianBlobs", 4, 10**19, 0.5, 0, (2,)), ["per_class"]),
        (("gaussianBlobs", np.int64(4), np.int64(2**61), 0.5, 0, (2,)), ["per_class"]),
    ])
    def test_check_names_each_broken_argument(self, args, broken):
        with pytest.raises(ValueError) as info:
            tl.synth_dataset(*args)
        rules = str(info.value).split("; ")
        assert [rule.split()[0] for rule in rules] == broken

    def test_blobs_peak_under_one_and_a_half_results(self):
        # the noise is drawn, scaled and shifted by its class means in place;
        # with the means gathered per example it peaked at twice the result
        tl.synth_dataset("gaussianBlobs", 4, 1, 0.8, seed=0, input_shape=(16, 16))  # warm
        tracemalloc.start()
        try:
            ds = tl.synth_dataset("gaussianBlobs", 4, 125, 0.8, seed=0, input_shape=(16, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.examples.nbytes

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
        with pytest.raises(ValueError, match="^ipc 21 exceeds the smallest class, of 20 "):
            tl.distill_random(dataset, ipc=21, seed=0)

    @pytest.mark.parametrize("distill,message", [
        (lambda d: tl.distill_kmeans_herding(d, 21, seed=0),
         "ipc 21 exceeds the smallest class, of 20"),
        # a fourth class, with no example
        (lambda d: tl.distill_class_mean(tl.LabeledDataset(d.examples, d.labels, 4)),
         "ipc 1 exceeds the smallest class, of 0")], ids=["kmeansHerding", "classMean"])
    def test_ipc_past_the_smallest_class_rejected(self, dataset, distill, message):
        with pytest.raises(ValueError, match=f"^{message} examples$"):
            distill(dataset)

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

    @pytest.mark.parametrize("ipc", [0, -1, 1.5, True, None])
    @pytest.mark.parametrize("distill", [tl.distill_random, tl.distill_kmeans_herding])
    def test_ipc_must_be_a_positive_integer(self, dataset, distill, ipc):
        with pytest.raises(ValueError, match="^ipc must be an integer >= 1"):
            distill(dataset, ipc, seed=0)

    @pytest.mark.parametrize("labels,classes,message", [
        ([0.7, 1.2], 2, "labels must be whole numbers"),
        ([True, False], 2, "labels must be whole numbers"),
        ([0, 1], 2.5, "num_classes must be an integer >= 1"),
        ([0, 1], None, "num_classes must be an integer >= 1")])
    def test_labels_and_classes_must_be_whole(self, labels, classes, message):
        with pytest.raises(ValueError, match=message):
            tl.LabeledDataset(np.zeros((2, 2)), labels, classes)

    def test_whole_float_labels_accepted(self):
        ds = tl.LabeledDataset(np.zeros((2, 2)), [1.0, 0.0], 2)
        assert ds.labels.dtype == np.int64 and list(ds.labels) == [1, 0]

    def test_ipc_must_match_example_count(self):
        # ipc is each class's count, so the counts must be equal
        x = np.zeros((4, 2))
        assert tl.DistilledDataset(x, [0, 0, 1, 1], 2).ipc == 2
        assert tl.DistilledDataset(x, [0, 1, 2, 3], 4).ipc == 1
        for labels, classes in (([0, 0, 0, 1], 2), ([0, 0, 0, 0], 2), ([0, 0, 1, 1], 3)):
            with pytest.raises(ValueError, match="classes hold"):
                tl.DistilledDataset(x, labels, classes)

    def test_labels_must_ascend(self):
        # balanced classes, but not in class-major order
        with pytest.raises(ValueError, match="^labels must be class-major"):
            tl.DistilledDataset(np.zeros((4, 2)), [1, 1, 0, 0], 2)

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError, match="unknown provenance 'x'"):
            tl.DistilledDataset(np.zeros((2, 3)), [0, 1], 2, provenance="x")

    def test_herding_zero_iterations_gives_the_seeds(self, dataset):
        dsyn = tl.distill_kmeans_herding(dataset, ipc=3, iterations=0, seed=4)
        for c in range(dataset.num_classes):
            points = dataset.examples[dataset.labels == c].reshape(-1, dataset.examples[0].size)
            seeds = _kmeans_plus_plus(points, 3, np.random.default_rng([4, c]))
            assert np.array_equal(dsyn.examples[dsyn.labels == c].reshape(3, -1),
                                  seeds.astype(dsyn.examples.dtype))

    @pytest.mark.parametrize("iterations", [-3, -1, 1.5, True])
    def test_herding_iterations_must_be_a_count(self, dataset, iterations):
        with pytest.raises(ValueError, match="iterations must be an integer >= 0"):
            tl.distill_kmeans_herding(dataset, ipc=2, iterations=iterations)

    def test_herding_deterministic(self, dataset):
        a = tl.distill_kmeans_herding(dataset, ipc=3, seed=5)
        b = tl.distill_kmeans_herding(dataset, ipc=3, seed=5)
        assert np.array_equal(a.examples, b.examples)


def _reference_herding(data, ipc, iterations=50, seed=0):
    """distill_kmeans_herding as first written: seeding re-stacks the
    distances to every chosen center, and Lloyd always runs all
    `iterations` rounds on an (n, k, d) broadcast."""
    images = []
    for c in range(data.num_classes):
        points = data.examples[data.labels == c].reshape(-1, data.examples[0].size)
        rng = np.random.default_rng([seed, c])
        centers = [points[rng.integers(points.shape[0])]]
        for _ in range(1, ipc):
            d2 = np.min([np.sum((points - x) ** 2, axis=1) for x in centers], axis=0)
            total = d2.sum()
            if total == 0.0:
                centers.append(points[int(np.argmin(d2))])
                continue
            r = rng.random() * total
            centers.append(points[int(np.searchsorted(np.cumsum(d2), r))])
        centers = np.stack(centers)
        for _ in range(iterations):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for j in range(ipc):
                members = points[assign == j]
                if members.shape[0] == 0:
                    centers[j] = points[int(np.argmax(np.min(d2, axis=1)))]
                else:
                    centers[j] = members.mean(axis=0)
        images.append(centers.reshape((ipc,) + data.examples.shape[1:]))
    return np.concatenate(images)


def _naive_lloyd(points, centers, iterations):
    """Lloyd's rounds as first written: every round recomputes every
    distance on an (n, k, d) broadcast, and all `iterations` rounds run.
    Also says whether some round moved some centers but not all."""
    partial = False
    for _ in range(iterations):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        previous = centers.copy()
        for j in range(len(centers)):
            members = points[assign == j]
            if members.shape[0] == 0:
                centers[j] = points[int(np.argmax(np.min(d2, axis=1)))]
            else:
                centers[j] = members.mean(axis=0)
        moved = (centers != previous).any(axis=1)
        partial |= bool(moved.any() and not moved.all())
    return centers, partial


def _reference_distill_random(data, ipc, seed):
    """distill_random as first written: sorted draws per class, then one
    gather of examples and labels."""
    rng = np.random.default_rng(seed)
    picks = [np.sort(rng.choice(np.flatnonzero(data.labels == c), size=ipc, replace=False))
             for c in range(data.num_classes)]
    idx = np.concatenate(picks)
    return data.examples[idx], data.labels[idx]


class TestRandomDistillOracle:
    """The shared per-class loop gives every bit of the old distill_random."""

    @pytest.mark.parametrize("ipc", [1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 4, 99])
    def test_matches_reference_on_uneven_classes(self, ipc, seed):
        full = tl.synth_dataset("gaussianBlobs", 3, 12, 0.5, seed=seed, input_shape=(1, 2, 2))
        # classes of 12, 7 and 5 examples, interleaved by a shuffle
        keep = np.concatenate([np.flatnonzero(full.labels == c)[:n]
                               for c, n in enumerate((12, 7, 5))])
        keep = np.random.default_rng(seed).permutation(keep)
        ds = tl.LabeledDataset(full.examples[keep], full.labels[keep], 3)
        assert list(ds.class_counts()) == [12, 7, 5]
        got = tl.distill_random(ds, ipc, seed)
        examples, labels = _reference_distill_random(ds, ipc, seed)
        assert got.examples.tobytes() == examples.tobytes()
        assert got.labels.tobytes() == labels.tobytes()


class TestHerdingOracle:
    """The early stop and the per-center distances change the work done,
    never a bit of the result."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("ipc", [1, 2, 5])
    def test_matches_reference(self, seed, ipc):
        ds = tl.synth_dataset("gaussianBlobs", 3, 40, 0.7, seed=seed,
                              input_shape=(4,))
        got = tl.distill_kmeans_herding(ds, ipc=ipc, seed=seed)
        assert got.examples.tobytes() == _reference_herding(ds, ipc, seed=seed).tobytes()

    def test_image_input(self):
        ds = tl.synth_dataset("gaussianBlobs", 2, 60, 1.0, seed=4,
                              input_shape=(1, 8, 8))
        got = tl.distill_kmeans_herding(ds, ipc=6, seed=2)
        assert got.examples.shape == (12, 1, 8, 8)
        assert got.examples.tobytes() == _reference_herding(ds, 6, seed=2).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_points_reseed_empty_clusters(self, seed):
        # three distinct points for four centers: a cluster must go empty
        x = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]), 6, axis=0)
        ds = tl.LabeledDataset(x, np.zeros(18, dtype=int), 1)
        got = tl.distill_kmeans_herding(ds, ipc=4, seed=seed)
        assert got.examples.tobytes() == _reference_herding(ds, 4, seed=seed).tobytes()

    def test_empty_cluster_reseeded_from_the_farthest_point(self):
        # seeds 1, 9 and 0: the center at 1 takes {1, 1, 5}, moves to 7/3 and
        # then loses every member.  Re-seeded at 5, the point farthest from
        # its nearest center, it settles at 5.5; re-seeded at the nearest
        # point, 0, the run would end at objective 26/3 instead of 7/6.
        points = np.array([[0.0], [1.0], [1.0], [5.0], [6.0], [9.0]])
        seeds = _kmeans_plus_plus(points, 3, np.random.default_rng(141))
        assert seeds.ravel().tolist() == [1.0, 9.0, 0.0]
        centers = _kmeans(points, 3, 50, np.random.default_rng(141))
        assert centers.ravel().tolist() == [5.5, 9.0, 2 / 3]
        assert kmeans_objective(points, centers) == pytest.approx(7 / 6)

    @pytest.mark.parametrize("dim,grid_seed", [(1, 5), (1, 6), (2, 0), (3, 1)])
    def test_grid_points_with_distance_ties(self, dim, grid_seed):
        # on a 0.1 grid many points sit (nearly) halfway between two
        # centers, so argmin follows the last bit of each squared distance
        x = np.random.default_rng(grid_seed).integers(0, 7, size=(24, dim)) * 0.1 + 0.3
        ds = tl.LabeledDataset(x, np.zeros(24, dtype=int), 1)
        for ipc in (3, 5):
            got = tl.distill_kmeans_herding(ds, ipc=ipc, seed=0)
            assert got.examples.tobytes() == _reference_herding(ds, ipc).tobytes()

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_few_iterations(self, iterations):
        ds = tl.synth_dataset("gaussianBlobs", 3, 50, 1.5, seed=8, input_shape=(6,))
        got = tl.distill_kmeans_herding(ds, ipc=7, iterations=iterations, seed=1)
        want = _reference_herding(ds, 7, iterations=iterations, seed=1)
        assert got.examples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_lloyd_matches_naive_loop(self, seed):
        # stretched gaussian clouds, where some centers settle rounds before
        # others, so the recompute of only the moved centers' columns is used
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((80, 5)) * rng.uniform(0.2, 3.0, 5)
        partial = []
        for k in (2, 6, 9):
            start = _kmeans_plus_plus(points, k, np.random.default_rng(seed))
            want, moved_some = _naive_lloyd(points, start, 50)
            got = _kmeans(points, k, 50, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()
            partial.append(moved_some)
        assert any(partial)

    def test_objective_matches_broadcast(self):
        ds = tl.synth_dataset("gaussianBlobs", 1, 30, 0.9, seed=5, input_shape=(3,))
        centers = ds.examples[:4] + 0.1
        d2 = ((ds.examples[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert kmeans_objective(ds.examples, centers) == float(d2.min(axis=1).sum())


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

    def test_trailing_bytes_rejected(self, tmp_path, dsyn):
        path = tmp_path / "d.dstl"
        tl.save_distilled(dsyn, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
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


def dstl_blob(num_classes, ipc, images, labels, dims=(3,), provenance=3):
    """DSTL bytes following the published layout, whatever the contents."""
    blob = DSTL_MAGIC + struct.pack("<IIII", 1, num_classes, ipc, len(dims))
    blob += struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<B", provenance)
    return (blob + np.asarray(images, dtype="<f4").tobytes()
            + np.asarray(labels, dtype="<u2").tobytes())


# files of the DSTL layout whose contents load_distilled rejects
BAD_DSTL_CONTENTS = {
    "unknown_provenance": dstl_blob(2, 1, np.zeros((2, 3)), [0, 1], provenance=9),
    "ipc_zero": dstl_blob(2, 0, np.zeros((0, 3)), []),
    "label_out_of_range": dstl_blob(2, 1, np.zeros((2, 3)), [0, 2]),
    "non_finite": dstl_blob(2, 1, [[0.0, np.nan, 0.0], [1.0, 1.0, np.inf]], [0, 1]),
    "unequal_classes": dstl_blob(2, 2, np.zeros((4, 3)), [0, 0, 0, 1]),
    "empty_class": dstl_blob(2, 2, np.zeros((4, 3)), [0, 0, 0, 0]),
}


class TestDstlContents:
    @pytest.mark.parametrize("name", sorted(BAD_DSTL_CONTENTS))
    def test_rejected_contents_are_format_errors(self, tmp_path, name):
        path = tmp_path / "bad.dstl"
        path.write_bytes(BAD_DSTL_CONTENTS[name])
        with pytest.raises(FormatError, match="bad.dstl"):
            tl.load_distilled(path)

    def test_labels_must_be_class_major(self, tmp_path):
        # two examples of each class, so only the order is wrong
        path = tmp_path / "descending.dstl"
        path.write_bytes(dstl_blob(2, 2, np.zeros((4, 3)), [1, 1, 0, 0]))
        with pytest.raises(FormatError, match="class-major"):
            tl.load_distilled(path)


def _mask_files():
    spec = tl.ModelSpec("mlp", (3,), 2, hidden=(4,))
    params = tl.init_params(spec, 0)
    mask = tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map), 0.5)
    with tempfile.TemporaryDirectory() as d:
        cli.save_mask(str(Path(d) / "m.mask"), mask, "imp", 0)
        return {name: (Path(d) / name).read_bytes() for name in ("m.mask", "m.mask.json")}


# format -> (the files of one valid object by name, its loader from a directory)
VALID_FILES = {
    "idx": ({"im.idx": struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(range(8)),
             "lb.idx": struct.pack(">II", 0x00000801, 2) + bytes([1, 0])},
            lambda d: tl.load_idx(d / "im.idx", d / "lb.idx")),
    "dstl": ({"d.dstl": dstl_blob(2, 1, [[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]], [0, 1])},
             lambda d: tl.load_distilled(d / "d.dstl")),
    "mask": (_mask_files(), lambda d: cli.load_mask(str(d / "m.mask"))),
}


class TestCorruptFiles:
    @pytest.mark.parametrize("fmt", sorted(VALID_FILES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_bad_byte_gives_an_object_or_format_error(self, fmt, data):
        """Truncating one file of a valid IDX pair, DSTL file or MASK file
        with its sidecar at any byte, or setting any one byte to any value,
        loads a valid object or raises FormatError, nothing else."""
        files, load = VALID_FILES[fmt]
        name = data.draw(st.sampled_from(sorted(files)))
        blob = files[name]
        at = data.draw(st.integers(0, len(blob) - 1))
        value = data.draw(st.none() | st.integers(0, 255))  # None: truncate at `at`
        tail = b"" if value is None else bytes([value]) + blob[at + 1:]
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            for other, contents in files.items():
                (d / other).write_bytes(contents)
            (d / name).write_bytes(blob[:at] + tail)
            try:
                load(d)
            except FormatError:
                pass

    @pytest.mark.parametrize("fmt,at,value", [
        ("idx", 4, 0xFFFFFFFF), ("idx", 8, 0xFFFFFFFF), ("idx", 12, 0xFFFFFFFF),
        ("dstl", 8, 0xFFFFFFFF), ("dstl", 12, 0xFFFFFFFF), ("dstl", 16, 0x7FFFFFFF),
        ("mask", 4, 0xFFFFFFFF),
    ])
    def test_huge_declared_sizes_are_format_errors(self, tmp_path, fmt, at, value):
        # a size or rank field set far beyond the file: nothing that large is read
        files, load = VALID_FILES[fmt]
        for name, blob in files.items():
            (tmp_path / name).write_bytes(blob)
        name = min(files)
        blob = files[name]
        packed = struct.pack(">I" if fmt == "idx" else "<I", value)
        (tmp_path / name).write_bytes(blob[:at] + packed + blob[at + 4:])
        with pytest.raises(FormatError):
            load(tmp_path)

    @pytest.mark.parametrize("sidecar", [b"\xff\xfe{}", b"{\"layer_map\": [", b"[1, 2]"])
    def test_unreadable_sidecar_is_format_error(self, tmp_path, sidecar):
        files, load = VALID_FILES["mask"]
        (tmp_path / "m.mask").write_bytes(files["m.mask"])
        (tmp_path / "m.mask.json").write_bytes(sidecar)
        with pytest.raises(FormatError):
            load(tmp_path)
