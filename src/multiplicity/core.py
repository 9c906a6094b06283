"""Data model for weighted binary classification data and linear classifiers.

Conventions used throughout the package:

* feature vectors are intercept-augmented, ``features[0] == 1`` always;
* labels live in ``{-1, +1}``;
* duplication from oversampling is carried by integer example weights, so
  every count below is a weight-expanded count and ``n`` means the total
  weight of a dataset;
* error rates are never stored as floats -- they are derived from exact
  integer mistake counts, because level-set membership must be decided
  exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

L1_TOL = 1e-6


class DimensionMismatchError(ValueError):
    """Feature vector length does not match the classifier or dataset."""


class EmptyDatasetError(ValueError):
    """Operation requires a nonempty dataset."""


class SingleClassError(ValueError):
    """Operation requires both classes to be present."""


class MissingGroupError(ValueError):
    """Operation requires group tags on every example."""


class InfeasibleWarmStartError(ValueError):
    """A caller-supplied warm start violates the model constraints."""


class InternalConsistencyError(RuntimeError):
    """An invariant that should be unbreakable was violated; indicates a bug."""


@dataclass(frozen=True)
class Example:
    """One training point: intercept-augmented features, a ±1 label, an
    optional group tag, and an integer duplication weight."""

    features: tuple
    label: int
    group: Optional[str] = None
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(float(v) for v in self.features))
        if not self.features or self.features[0] != 1.0:
            raise ValueError("features[0] must be exactly 1 (intercept slot)")
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label!r}")
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(f"weight must be a positive integer, got {self.weight!r}")


@dataclass(frozen=True)
class LinearClassifier:
    """Linear classifier with unit l1-norm coefficients on d+1 features.

    ``coefficients[0]`` is the intercept coefficient.  The all-zero vector is
    tolerated as a degenerate case (it predicts -1 everywhere through the tie
    rule); it shows up in penalized-regression pools at maximal shrinkage.
    """

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(float(v) for v in self.coefficients)
        )
        norm = sum(abs(v) for v in self.coefficients)
        if norm != 0.0 and abs(norm - 1.0) > L1_TOL:
            raise ValueError(f"coefficients must have unit l1 norm, got {norm}")
        if any(abs(v) > 1.0 + L1_TOL for v in self.coefficients):
            raise ValueError("every coefficient must lie in [-1, 1]")

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def score(self, features: Sequence[float]) -> float:
        if len(features) != len(self.coefficients):
            raise DimensionMismatchError(
                f"classifier has {len(self.coefficients)} coefficients, "
                f"input has {len(features)} features"
            )
        return float(np.dot(self.coefficients, features))

    def negated(self) -> "LinearClassifier":
        return LinearClassifier(tuple(-v for v in self.coefficients))

    @classmethod
    def from_raw(cls, coefficients: Sequence[float]) -> "LinearClassifier":
        """Rescale arbitrary coefficients to unit l1 norm (sign-invariant, so
        predictions are unchanged).  The zero vector is kept as-is."""
        coefs = tuple(float(v) for v in coefficients)
        norm = sum(abs(v) for v in coefs)
        if norm == 0.0:
            return cls(coefs)
        return cls(tuple(v / norm for v in coefs))


@dataclass(frozen=True)
class RiskReport:
    """Exact mistake count over a weight-expanded dataset."""

    mistakes: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        if not 0 <= self.mistakes <= self.n:
            raise ValueError(f"mistakes must lie in [0, {self.n}]")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.mistakes, self.n)


@dataclass(frozen=True)
class Cells:
    """The distinct feature vectors of a dataset, in first-appearance order.

    ``pos[c]`` and ``neg[c]`` are the total weights of the positive and the
    negative examples whose features equal ``X[c]``; ``index[i]`` is the
    cell of example ``i``.  Every measure depends on a classifier only
    through its prediction on each cell.
    """

    X: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    index: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of examples over d features plus the intercept.

    ``cells`` groups the examples by feature vector; the integer programs
    carry one indicator per cell.
    """

    examples: tuple
    d: int

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if not self.examples:
            raise EmptyDatasetError("dataset must contain at least one example")
        width = self.d + 1
        for ex in self.examples:
            if len(ex.features) != width:
                raise DimensionMismatchError(
                    f"expected {width} features, got {len(ex.features)}"
                )

    @classmethod
    def build(cls, examples: Sequence[Example]) -> "Dataset":
        examples = tuple(examples)
        if not examples:
            raise EmptyDatasetError("dataset must contain at least one example")
        return cls(examples=examples, d=len(examples[0].features) - 1)

    @cached_property
    def cells(self) -> Cells:
        first: dict = {}
        index = np.array(
            [first.setdefault(ex.features, len(first)) for ex in self.examples]
        )
        pos = np.zeros(len(first), dtype=int)
        neg = np.zeros(len(first), dtype=int)
        positive = self.y == 1
        np.add.at(pos, index[positive], self.weights[positive])
        np.add.at(neg, index[~positive], self.weights[~positive])
        X = np.array(list(first), dtype=float)
        for v in (X, pos, neg, index):
            v.flags.writeable = False
        return Cells(X=X, pos=pos, neg=neg, index=index)

    @cached_property
    def X(self) -> np.ndarray:
        m = np.array([ex.features for ex in self.examples], dtype=float)
        m.flags.writeable = False
        return m

    @cached_property
    def y(self) -> np.ndarray:
        v = np.array([ex.label for ex in self.examples], dtype=int)
        v.flags.writeable = False
        return v

    @cached_property
    def weights(self) -> np.ndarray:
        v = np.array([ex.weight for ex in self.examples], dtype=int)
        v.flags.writeable = False
        return v

    @property
    def n(self) -> int:
        """Total example weight; the denominator of every rate."""
        return int(self.weights.sum())

    @property
    def groups(self) -> tuple:
        return tuple(ex.group for ex in self.examples)

    def with_weights(self, weights: Sequence[int]) -> "Dataset":
        if len(weights) != len(self.examples):
            raise DimensionMismatchError("weight vector length mismatch")
        new = tuple(
            Example(ex.features, ex.label, ex.group, int(w))
            for ex, w in zip(self.examples, weights)
        )
        return Dataset(examples=new, d=self.d)


def predict(h: LinearClassifier, x: Example) -> int:
    """Sign prediction with a deterministic tie rule: w.x > 0 maps to +1,
    anything else (including an exact zero score) maps to -1."""
    return 1 if h.score(x.features) > 0.0 else -1


def predictions(h: LinearClassifier, dataset: Dataset) -> np.ndarray:
    if dataset.X.shape[1] != h.dim:
        raise DimensionMismatchError(
            f"classifier has {h.dim} coefficients, dataset has {dataset.X.shape[1]}"
        )
    scores = dataset.X @ np.asarray(h.coefficients)
    return np.where(scores > 0.0, 1, -1)


def empirical_risk(h: LinearClassifier, dataset: Dataset) -> RiskReport:
    """Weight-expanded 0-1 training error of ``h`` on ``dataset``."""
    preds = predictions(h, dataset)
    mistakes = int(dataset.weights[preds != dataset.y].sum())
    return RiskReport(mistakes=mistakes, n=dataset.n)


def conflict_count(
    h1: LinearClassifier, h2: LinearClassifier, dataset: Dataset
) -> RiskReport:
    """Weight-expanded count of examples where the two classifiers disagree."""
    p1 = predictions(h1, dataset)
    p2 = predictions(h2, dataset)
    disagree = int(dataset.weights[p1 != p2].sum())
    return RiskReport(mistakes=disagree, n=dataset.n)


def oversample_minority(dataset: Dataset, seed: int) -> Dataset:
    """Equalize total positive and negative weight by incrementing minority
    example weights round-robin, starting at a seeded index.

    Deterministic for a fixed seed; a no-op on balanced data.
    """
    weights = dataset.weights.copy()
    pos_total = int(weights[dataset.y == 1].sum())
    neg_total = int(weights[dataset.y == -1].sum())
    if pos_total == 0 or neg_total == 0:
        raise SingleClassError("both classes must be present to oversample")
    if pos_total == neg_total:
        return dataset
    minority_label = 1 if pos_total < neg_total else -1
    minority_idx = [
        i for i, ex in enumerate(dataset.examples) if ex.label == minority_label
    ]
    deficit = abs(pos_total - neg_total)
    start = random.Random(seed).randrange(len(minority_idx))
    for step in range(deficit):
        weights[minority_idx[(start + step) % len(minority_idx)]] += 1
    return dataset.with_weights(weights.tolist())
