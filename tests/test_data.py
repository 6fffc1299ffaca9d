import numpy as np
import pytest

from radreg.data import LabeledDataset, load_dataset_csv
from radreg.errors import ContractViolation, DimensionMismatch, InsufficientPoints, MalformedCsv


def _finite_dataset():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    return X, X @ np.array([1.0, 2.0, -1.0])


@pytest.mark.parametrize("shape, error", [((0, 3), InsufficientPoints),
                                          ((0, 0), InsufficientPoints),
                                          ((3, 0), DimensionMismatch)])
def test_a_dataset_needs_a_row_and_a_covariate(shape, error):
    # on a (3, 0) set recover_linear used to raise a bare ZeroDivisionError
    # and ellipsoid_recover_relu an IndexError
    with pytest.raises(error):
        LabeledDataset(np.zeros(shape), np.zeros(shape[0]))


def test_rows_and_labels_of_other_counts_are_a_contract_violation():
    with pytest.raises(ContractViolation, match="3 covariate rows vs 2 labels"):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2))


def test_blank_lines_of_a_csv_are_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x1,y\n1,2\n\n3,4\n")
    ds = load_dataset_csv(path)
    assert np.array_equal(ds.x, [[1.0], [3.0]]) and np.array_equal(ds.y, [2.0, 4.0])


def test_covariates_of_three_axes_are_a_dimension_mismatch():
    # used to raise numpy's untyped ValueError from broadcasting the finiteness masks
    with pytest.raises(DimensionMismatch, match="matrix"):
        LabeledDataset(np.zeros((3, 2, 2)), np.ones(3))


class TestNonFiniteRejected:
    def test_nan_covariate_row(self):
        # a NaN row would otherwise pass as a zero covariate in recover_linear
        X, y = _finite_dataset()
        X[4] = np.nan
        with pytest.raises(ContractViolation, match="row 4"):
            LabeledDataset(X, y)

    def test_inf_label(self):
        # an inf label would otherwise reach the LP's cost vector
        X, y = _finite_dataset()
        y[7] = np.inf
        with pytest.raises(ContractViolation, match="row 7"):
            LabeledDataset(X, y)

    def test_nan_label(self):
        X, y = _finite_dataset()
        y[0] = np.nan
        with pytest.raises(ContractViolation, match="row 0"):
            LabeledDataset(X, y)

    def test_nan_cell_in_csv_is_a_typed_error(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1,x2,y\n1,2,3\nnan,1,2\n")
        with pytest.raises(ContractViolation):
            load_dataset_csv(path)


class TestMalformedCsv:
    @pytest.mark.parametrize("text, error, message", [
        ("", MalformedCsv, "empty file"),
        ("x1,y\n", MalformedCsv, "no data rows"),
        ("y\n1\n", DimensionMismatch, "at least one covariate"),
    ])
    def test_file_without_samples_or_covariates(self, text, error, message, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(error, match=message):
            load_dataset_csv(path)
