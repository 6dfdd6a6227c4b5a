import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankloss import (
    ArmConfig,
    CsvError,
    Dataset,
    EmptyFileError,
    ExperimentConfig,
    FieldError,
    MissingColumnError,
    NonNumericCellError,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_scores_csv,
    run_experiment,
    save_csv,
)


class TestGenerateSynthetic:
    def test_exact_cohort_counts(self):
        spec = SyntheticSpec(class_counts=(143, 71, 125), dim=8,
                             class_mean_separation=2.0, noise_std=1.0, seed=0)
        ds = generate_synthetic(spec)
        assert ds.n_samples == 339
        assert ds.class_counts().tolist() == [143, 71, 125]

    def test_deterministic(self):
        spec = SyntheticSpec(class_counts=(20, 10), dim=4,
                             class_mean_separation=1.5, noise_std=1.0,
                             label_flip_prob=0.1, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_mean_separation_as_requested(self):
        spec = SyntheticSpec(class_counts=(2000, 2000, 2000), dim=3,
                             class_mean_separation=4.0, noise_std=0.5, seed=1)
        ds = generate_synthetic(spec)
        centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                dist = np.linalg.norm(centers[i] - centers[j])
                assert dist == pytest.approx(4.0, abs=0.1)

    def test_flip_rate_roughly_matches(self):
        spec = SyntheticSpec(class_counts=(5000, 5000), dim=2,
                             class_mean_separation=0.0, noise_std=1.0,
                             label_flip_prob=0.1, seed=3)
        ds = generate_synthetic(spec)
        # Original labels are block-ordered: first 5000 were class 0.
        flipped = (ds.labels[:5000] == 1).sum() + (ds.labels[5000:] == 0).sum()
        assert 0.08 <= flipped / 10000 <= 0.12

    def test_zero_separation_is_uninformative(self):
        # Features carry no label signal, so trained models hover at
        # AUROC 0.5 on average across trials.
        spec = SyntheticSpec(class_counts=(40, 40), dim=2,
                             class_mean_separation=0.0, noise_std=1.0, seed=5)
        ds = generate_synthetic(spec)
        config = ExperimentConfig(
            arms=(ArmConfig("ce", "cross_entropy", 8, max_epochs=3),),
            split=SplitSpec(n_repeats=100, base_seed=0),
            hidden_dims=(4,),
        )
        report = run_experiment(ds, config, jobs=4)
        assert abs(report.arms[0].mean - 0.5) <= 0.05

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SyntheticSpec(class_counts=(10,), dim=4, class_mean_separation=1.0, noise_std=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(class_counts=(10, 10, 10), dim=2,
                          class_mean_separation=1.0, noise_std=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(class_counts=(10, 10), dim=4,
                          class_mean_separation=1.0, noise_std=1.0, label_flip_prob=0.5)
        # Counts, dim and seed are integers; a float is rejected, not truncated.
        valid = dict(class_counts=(20, 30), dim=4, class_mean_separation=1.0, noise_std=1.0)
        for field, value in (("class_counts", (20.5, 30)), ("class_counts", (20, 30.0)),
                             ("dim", 4.0), ("seed", 1.5)):
            with pytest.raises(FieldError) as exc:
                SyntheticSpec(**{**valid, field: value})
            assert exc.value.field == field
        counts = SyntheticSpec(**{**valid, "class_counts": [np.int64(20), 30]}).class_counts
        assert counts == (20, 30) and all(type(c) is int for c in counts)

    def test_overflowing_draws(self):
        # A finite noise_std whose draws overflow names the field; the
        # largest finite separation alone still draws finite features.
        spec = dict(class_counts=(40, 20), dim=3, seed=1)
        with pytest.raises(FieldError, match="^noise_std 1e[+]308 with class_mean_separation") as exc:
            generate_synthetic(SyntheticSpec(**spec, class_mean_separation=1.0, noise_std=1e308))
        assert exc.value.field == "noise_std"
        ds = generate_synthetic(SyntheticSpec(**spec, class_mean_separation=1.7e308, noise_std=1.0))
        assert np.isfinite(ds.features).all()

    def test_nan_separation_names_its_field(self):
        # Not the noise_std that the non-finite draws would otherwise blame.
        with pytest.raises(FieldError) as exc:
            SyntheticSpec((10, 10), 2, float("nan"), 1.0)
        assert exc.value.field == "class_mean_separation"


class TestCsv:
    def test_label_mapping_first_appearance(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("x,y,kind\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(path, "kind")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_names == ("a", "b")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_missing_cell(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("x,y,kind\n1.0,2.0,a\n3.0,4.0,b\n5.0,,a\n")
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path, "kind")
        assert err.value.row == 2
        assert err.value.column == "y"

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("x,y,kind\n1.0,oops,a\n3.0,4.0,b\n")
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path, "kind")
        assert (err.value.row, err.value.column) == (0, "y")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, "kind")

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x,y,kind\n1.0,2.0,a\n3.0,4.0\n")
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path, "kind")
        assert err.value.row == 1

    def test_empty_label_cell(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("x,y,kind\n1.0,2.0,a\n3.0,4.0,\n")
        with pytest.raises(NonNumericCellError) as err:
            load_csv(path, "kind")
        assert (err.value.row, err.value.column) == (1, "kind")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyFileError):
            load_csv(path, "kind")
        path.write_text("x,y,kind\n")
        with pytest.raises(EmptyFileError):
            load_csv(path, "kind")

    def test_byte_order_mark_is_not_part_of_the_label_column(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfkind,x,y\na,1.0,2.0\nb,3.0,4.0\n")
        ds = load_csv(path, "kind")
        assert ds.labels.tolist() == [0, 1] and ds.class_names == ("a", "b")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_bytes(b"\xef\xbb\xbftarget,s0,s1\n1,0.2,0.8\n0,0.6,0.4\n")
        scores, labels = load_scores_csv(path, "target")
        assert labels.tolist() == [1, 0] and scores.tolist() == [[0.2, 0.8], [0.6, 0.4]]

    def test_not_utf8_offset_counts_the_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfkind,x\n\xff,1.0\n")
        with pytest.raises(CsvError, match=r"not UTF-8 text \(invalid start byte at byte 10\)"):
            load_csv(path, "kind")

    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(class_counts=(15, 10, 5), dim=4,
                             class_mean_separation=2.0, noise_std=1.0, seed=11)
        original = generate_synthetic(spec)
        path = tmp_path / "round.csv"
        save_csv(original, path)
        reloaded = load_csv(path, "label")
        assert np.abs(reloaded.features - original.features).max() <= 1e-12
        assert np.array_equal(reloaded.labels, original.labels)
        assert reloaded.n_classes == original.n_classes

    def test_round_trip_is_exact(self, tmp_path):
        # 17 significant digits reproduce float64 exactly, not just closely.
        spec = SyntheticSpec(class_counts=(8, 8), dim=3,
                             class_mean_separation=1.0, noise_std=1.0, seed=2)
        original = generate_synthetic(spec)
        path = tmp_path / "exact.csv"
        save_csv(original, path)
        reloaded = load_csv(path, "label")
        assert np.array_equal(reloaded.features, original.features)


@st.composite
def class_ordered_datasets(draw):
    """Datasets whose rows run class by class, as generated ones do, with
    any finite features and optionally named classes."""
    counts = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    dim = draw(st.integers(1, 3))
    n = sum(counts)
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * dim, max_size=n * dim))
    names = draw(st.none() | st.lists(st.text(min_size=1), min_size=len(counts),
                                      max_size=len(counts), unique=True))
    return Dataset(features=np.array(values).reshape(n, dim),
                   labels=np.repeat(np.arange(len(counts)), counts),
                   n_classes=len(counts), class_names=None if names is None else tuple(names))


@settings(deadline=None, max_examples=60)
@given(class_ordered_datasets())
def test_csv_round_trip_property(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    save_csv(dataset, path)
    reloaded = load_csv(path, "label")
    assert reloaded.features.tobytes() == dataset.features.tobytes()  # -0.0 and subnormals too
    assert np.array_equal(reloaded.labels, dataset.labels)
    assert reloaded.n_classes == dataset.n_classes


class TestDatasetValidation:
    def test_rejects_missing_class(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 0, 2]), n_classes=3)

    @pytest.mark.parametrize("n_classes", [2.0, 2.5, np.float64(2.0)])
    def test_rejects_float_n_classes(self, n_classes):
        with pytest.raises(ValueError, match="^n_classes must be an integer, got "):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 1]), n_classes=n_classes)

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(features=bad, labels=np.array([0, 1]), n_classes=2)
