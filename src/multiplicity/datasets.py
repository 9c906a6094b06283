"""Dataset ingestion and synthetic generators.

CSV ingestion follows the measurement protocol: drop rows with missing
cells (a cell that is not a finite number counts as missing), map 0/1
labels to -1/+1, prepend the intercept, shuffle with the split seed, cut an
80/20 train/test split, and oversample the minority class on the training
split only.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Optional

from .core import Dataset, Example, SingleClassError, oversample_minority


class InputError(ValueError):
    """Malformed user input (CSV, config, or CLI arguments)."""


# Feature cells of the two-dimensional toy grids.
_GRID_CELLS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))

# label -> count per cell for the four-cell parity example (one optimal
# classifier must err on exactly one cell).
_XOR_COUNTS = {
    (0.0, 0.0): (0, 25),
    (0.0, 1.0): (25, 0),
    (1.0, 0.0): (25, 0),
    (1.0, 1.0): (0, 25),
}

# Two groups with mirrored label distributions; the pooled optimum matches
# group A's optimum and leaves group B systematically outvoted.
_TYRANNY_COUNTS = {
    "A": {
        (0.0, 0.0): (50, 101),
        (0.0, 1.0): (101, 50),
        (1.0, 0.0): (101, 50),
        (1.0, 1.0): (101, 50),
    },
    "B": {
        (0.0, 0.0): (100, 50),
        (0.0, 1.0): (50, 100),
        (1.0, 0.0): (50, 100),
        (1.0, 1.0): (50, 100),
    },
}


def generate_synthetic(name: str, scale: int = 1) -> Dataset:
    """Build one of the toy grids as a weighted dataset.

    ``xor``: 4 cells x 25*scale points, single-label cells, 100*scale points.
    ``tyranny``: two groups x 4 cells, 1204*scale points total.
    """
    if scale < 1:
        raise InputError("scale must be >= 1")
    examples = []
    if name == "xor":
        for cell in _GRID_CELLS:
            n_pos, n_neg = _XOR_COUNTS[cell]
            for label, count in ((1, n_pos), (-1, n_neg)):
                if count:
                    examples.append(
                        Example((1.0,) + cell, label, weight=count * scale)
                    )
    elif name == "tyranny":
        for group in ("A", "B"):
            for cell in _GRID_CELLS:
                n_pos, n_neg = _TYRANNY_COUNTS[group][cell]
                for label, count in ((1, n_pos), (-1, n_neg)):
                    if count:
                        examples.append(
                            Example(
                                (1.0,) + cell, label, group=group,
                                weight=count * scale,
                            )
                        )
    else:
        raise InputError(f"unknown synthetic dataset {name!r}")
    return Dataset.build(examples)


@dataclass(frozen=True)
class DropReport:
    rows: tuple  # 1-based data row numbers (header excluded)

    @property
    def count(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class IngestResult:
    train: Dataset
    test: Optional[Dataset]
    dropped: DropReport
    feature_names: tuple


def merge_duplicates(examples) -> list:
    """Collapse identical (features, label, group) rows into integer weights.

    Keeps per-example work at the distinct-row count; every measure in the
    package is weight-expanded, so results are unchanged.  First-occurrence
    order is preserved.
    """
    merged: dict = {}
    order = []
    for ex in examples:
        key = (ex.features, ex.label, ex.group)
        if key in merged:
            merged[key] += ex.weight
        else:
            merged[key] = ex.weight
            order.append(key)
    return [
        Example(features, label, group=group, weight=merged[(features, label, group)])
        for features, label, group in order
    ]


def _number(text: str):
    """The finite float that ``text`` spells, or None (empty or non-numeric
    text, NaN and infinities alike)."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_label(raw: str, row_no: int):
    value = _number(raw)
    if value is None:
        return None
    if value in (-1.0, 1.0):
        return int(value)
    if value == 0.0:
        return -1
    raise InputError(f"row {row_no}: label {raw!r} is not in {{-1,+1}} or {{0,1}}")


def ingest_csv(
    path,
    label_column: str,
    group_column: Optional[str] = None,
    split_fraction: float = 0.8,
    split_seed: int = 0,
    oversample: bool = True,
) -> IngestResult:
    """Read a header CSV into train/test datasets per the audit protocol."""
    if not 0.0 < split_fraction < 1.0:
        raise InputError("split fraction must lie in (0, 1)")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read dataset {str(path)!r}: {exc}") from None
    if not rows:
        raise InputError("CSV file is empty")
    header = rows[0]
    if label_column not in header:
        raise InputError(f"label column {label_column!r} not found in header")
    if group_column is not None and group_column not in header:
        raise InputError(f"group column {group_column!r} not found in header")
    label_idx = header.index(label_column)
    group_idx = header.index(group_column) if group_column else None
    feature_names = tuple(
        name
        for i, name in enumerate(header)
        if i not in (label_idx, group_idx)
    )
    examples = []
    dropped = []
    for row_no, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            dropped.append(row_no)
            continue
        label = _parse_label(row[label_idx].strip(), row_no)
        feats = [1.0] + [
            _number(cell) for i, cell in enumerate(row) if i not in (label_idx, group_idx)
        ]
        if label is None or None in feats:
            dropped.append(row_no)
            continue
        group = row[group_idx].strip() if group_idx is not None else None
        examples.append(Example(tuple(feats), label, group=group))
    if not examples:
        complete = [row for row in rows[1:] if len(row) == len(header)]
        textual = [
            repr(name)
            for i, name in enumerate(header)
            if complete and i not in (label_idx, group_idx)
            and all(_number(row[i]) is None for row in complete)
        ]
        hint = (
            f": feature column(s) {', '.join(textual)} hold no number in any row; "
            f"pass a group column as --group-column"
            if textual else ""
        )
        raise InputError("no usable rows left after cleaning" + hint)

    order = list(range(len(examples)))
    random.Random(split_seed).shuffle(order)
    n_train = int(len(examples) * split_fraction)
    if n_train == 0 or n_train == len(examples):
        raise InputError("split produced an empty train or test set")
    train_examples = merge_duplicates(examples[i] for i in order[:n_train])
    test_examples = merge_duplicates(examples[i] for i in order[n_train:])

    train = Dataset.build(train_examples)
    if oversample:
        try:
            train = oversample_minority(train, seed=split_seed)
        except SingleClassError as exc:
            raise InputError(f"training split: {exc}") from None
    test = Dataset.build(test_examples)
    return IngestResult(
        train=train,
        test=test,
        dropped=DropReport(rows=tuple(dropped)),
        feature_names=feature_names,
    )


def write_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Expand a weighted dataset into plain CSV rows (used by `generate`)."""
    d = dataset.d
    header = [f"x{j}" for j in range(1, d + 1)] + [label_column]
    has_groups = any(ex.group is not None for ex in dataset.examples)
    if has_groups:
        header.append("group")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ex in dataset.examples:
            row = [repr(v) for v in ex.features[1:]] + [str(ex.label)]
            if has_groups:
                row.append(ex.group or "")
            for _ in range(ex.weight):
                writer.writerow(row)
