"""One rule for every matrix of samples the package takes (`numerics.as_matrix`),
and one for every vector of labels or decisions (`numerics.as_labels`).

Each entry point that takes samples is called with each fault of one good
(n, 7) matrix: a shape fault raises ShapeError and names the expected width,
and a NaN or an infinity raises DomainError. A matrix of another width than
the model's is a shape fault, like a bare vector, never a silent answer.
Likewise each entry point that takes labels or decisions refuses a vector of
another shape (ShapeError) or a value that is not exactly 0 or 1
(DomainError), before any cast could turn 256 into 0 or 0.7 into 0.
"""

import numpy as np
import pytest

from aeromon.anomaly import MAHALANOBIS_POLICY, MSE_POLICY, ThresholdPolicy, calibrate, classify
from aeromon.autoencoder import default_autoencoder_specs, init_network
from aeromon.baselines import CLASSIFIER_KINDS, ClassifierConfig, predict, predict_proba, train_classifier
from aeromon.dataset import Dataset, SynthConfig, apply_scaler, fit_scaler, generate_synthetic
from aeromon.errors import DomainError, ShapeError
from aeromon.evaluation import auroc, confusion, evaluate_model
from aeromon.numerics import as_labels, as_matrix, covariance

POLICIES = (MSE_POLICY, MAHALANOBIS_POLICY)


def _with(good, row, col, value):
    bad = good.copy()
    bad[row, col] = value
    return bad


# fault name -> (samples from the good matrix, error class, is a width fault)
FAULTS = {
    "vector": (lambda good: good[0], ShapeError, False),
    "ragged": (lambda good: [good[0].tolist(), good[1, :-1].tolist()], ShapeError, False),
    "one_column_too_many": (lambda good: np.hstack([good, good[:, :1]]), ShapeError, True),
    "one_column_too_few": (lambda good: good[:, :-1], ShapeError, True),
    "nan": (lambda good: _with(good, 2, 3, np.nan), DomainError, False),
    "inf": (lambda good: _with(good, 4, 6, np.inf), DomainError, False),
}


@pytest.fixture(scope="module")
def entries():
    """entry name -> (call on a sample matrix, a good matrix for it)."""
    data = generate_synthetic(SynthConfig(n_samples=300, seed=5))
    normals = Dataset(data.features[data.labels == 0])
    scaler = fit_scaler(normals)
    scaled = apply_scaler(scaler, data)
    net = init_network(default_autoencoder_specs(), seed=5)
    good = data.features[:6]
    table = {
        "Dataset": (Dataset, good),
        "covariance": (covariance, good),
        "calibrate": (lambda x: calibrate(net, scaler, Dataset(x), ThresholdPolicy(MSE_POLICY)), good),
    }
    for policy in POLICIES:
        scorer = calibrate(net, scaler, normals, ThresholdPolicy(policy))
        table[f"classify-{policy}"] = (lambda x, s=scorer: classify(s, x), good)
    for kind in CLASSIFIER_KINDS:
        model = train_classifier(ClassifierConfig(kind, epochs=5, n_trees=3, k=3), scaled, seed=5)
        table[f"predict-{kind}"] = (lambda x, m=model: predict(m, x), scaled.features[:6])
        table[f"predict_proba-{kind}"] = (lambda x, m=model: predict_proba(m, x), scaled.features[:6])
    return table


# entry name -> the width it expects, or None for any width
WIDTHS = {"Dataset": None, "covariance": None, "calibrate": 7}
WIDTHS.update({f"classify-{policy}": 7 for policy in POLICIES})
WIDTHS.update({f"{fn}-{kind}": 7 for fn in ("predict", "predict_proba") for kind in CLASSIFIER_KINDS})
CASES = [
    (entry, fault)
    for entry, width in WIDTHS.items()
    for fault, (_, _, width_fault) in FAULTS.items()
    # no width, no width fault; calibrate's Dataset has rejected every fault but the width
    if (width_fault and width is not None) or (not width_fault and entry != "calibrate")
]


@pytest.mark.invariant
@pytest.mark.parametrize("entry, fault", CASES)
def test_every_entry_point_applies_the_one_rule(entries, entry, fault):
    call, good = entries[entry]
    make, error, _ = FAULTS[fault]
    call(good)  # the good matrix passes
    width = WIDTHS[entry]
    expected = rf"expected \(n, {'d' if width is None else width}\)" if error is ShapeError else "non-finite"
    with pytest.raises(error, match=expected):
        call(make(good))


def test_as_matrix_returns_a_c_order_float64_matrix():
    x = as_matrix(np.arange(12, dtype=np.int32).reshape(3, 4).T, width=3)
    assert x.dtype == np.float64 and x.flags.c_contiguous and x.shape == (4, 3)
    same = np.zeros((2, 5))
    assert as_matrix(same) is same
    with pytest.raises(ShapeError, match=r"expected \(n, d\)"):
        as_matrix([["a", "b"]])


_GOOD_LABELS = [0, 1, 1]
_THREE_ROWS = generate_synthetic(SynthConfig(n_samples=100, seed=5)).features[:3]
# entry name -> call on a label or decision vector; [0, 1, 1] is good for each
LABEL_ENTRIES = {
    "as_labels": lambda v: as_labels(v, 3),
    "Dataset": lambda v: Dataset(_THREE_ROWS, v),
    "confusion-pred": lambda v: confusion(v, _GOOD_LABELS),
    "confusion-truth": lambda v: confusion(_GOOD_LABELS, v),
    "auroc-truth": lambda v: auroc([0.1, 0.9, 0.5], v),
    "evaluate_model-decisions": lambda v: evaluate_model(
        lambda x: (v, np.zeros(3)), Dataset(_THREE_ROWS, _GOOD_LABELS)
    ),
}
# fault name -> (label vector, error class)
LABEL_FAULTS = {
    "int_256": (np.array([0, 1, 256]), DomainError),
    "list_256": ([0, 1, 256], DomainError),
    "int_257": ([0, 1, 257], DomainError),
    "int_minus_255": ([0, 1, -255], DomainError),
    "fraction": ([0.0, 1.0, 0.7], DomainError),
    "mixed": ([256, 1, 0.6], DomainError),
    "two_float": ([2.0, 0.9, 1.0], DomainError),
    "nan": ([0, 1, np.nan], DomainError),
    "text": (["0", "1", "1"], DomainError),
    "short": ([0, 1], ShapeError),
    "matrix": ([[0, 1, 1]], ShapeError),
    "ragged": ([0, [1, 1], 0], ShapeError),
}


@pytest.mark.invariant
@pytest.mark.parametrize("fault", LABEL_FAULTS)
@pytest.mark.parametrize("entry", LABEL_ENTRIES)
def test_every_label_entry_point_applies_the_one_rule(entry, fault):
    call = LABEL_ENTRIES[entry]
    call(_GOOD_LABELS)  # the good vector passes
    values, error = LABEL_FAULTS[fault]
    with pytest.raises(error):
        call(values)


def test_as_labels_returns_the_values_as_int8():
    for values in ([0, 1, 1], [0.0, 1.0, 1.0], [False, True, True], np.array([0, 1, 1], dtype=np.int64)):
        labels = as_labels(values)
        assert labels.dtype == np.int8 and labels.tolist() == [0, 1, 1]
    same = np.array([1, 0], dtype=np.int8)
    assert as_labels(same, 2) is same
    assert Dataset(_THREE_ROWS, np.array([0, 1, 1])).labels.tolist() == _GOOD_LABELS
