"""Report files of an audit and their formats.

All files go under the run's output directory:

* ``profile.json``   full multiplicity profile with exact bounds
* ``profile.csv``    plot-ready rows: epsilon, disc/amb lower, upper, certified
* ``baseline.json``  baseline coefficients plus train/test risk
* ``pool.json``      penalized-regression pool summary (when --adhoc is set)
* ``burden.csv``     per-group ambiguity (when the data carries group tags)
* ``run_manifest.json``  config echo, seeds, versions, wall times, node counts

Timing lives only in the manifest, so node-limited runs with the same
config produce byte-identical profile files.

Each report is written once per run.  The epsilon column of
``profile.*``, ``pool.json`` and ``burden.csv`` takes one label per grid
value (``epsilon_labels``), made once and passed to every writer.

The profile reports (``profile.*``, ``burden.csv`` and the ``profile``
block of ``pool.json``) are written from the ``profiles.Measures`` count
tables: each distinct (lower, upper, certified) row is formatted once from
its integers, a share k/total as ``repr(k / total)`` (int division rounds
correctly, so this is the share's float) and as the reduced fraction, and
each grid point fills one template.  Each distinct witness's coefficient
list is encoded once.  The bytes are those of
``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)`` and of
``csv.writer`` on the profile built one grid point at a time.
``write_pool`` reads its models table off the columns of a ``pool.Pool``.
Every other JSON file goes through ``write_json``, which is ``json.dumps``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .profiles import MultiplicityProfile, burden_path


def _decimal(p: int, q: int) -> str:
    """``exact_decimal`` of p/q, for q > 0 and p/q in lowest terms."""
    if q == 1:
        return str(p)
    twos = (q & -q).bit_length() - 1
    rest, fives = q >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return repr(p / q)  # int division rounds correctly: float(p/q)
    shift = max(twos, fives)  # 10**shift is the least power of 10 that q divides
    digits = str(abs(p) * 10**shift // q).rjust(shift + 1, "0")
    return f"{'-' if p < 0 else ''}{digits[:-shift]}.{digits[-shift:]}"


def exact_decimal(value) -> str:
    """Shortest exact decimal when the denominator is 2^a 5^b, float repr
    otherwise."""
    frac = Fraction(value)
    return _decimal(frac.numerator, frac.denominator)


def epsilon_labels(values) -> list:
    """The ``exact_decimal`` label of each epsilon (a ``Fraction``), in
    order."""
    return [_decimal(v.numerator, v.denominator) for v in values]


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys, plus a newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def risk_json(risk) -> dict:
    return {
        "mistakes": risk.mistakes,
        "n": risk.n,
        "rate": float(risk.rate),
        "rate_exact": str(risk.rate),
    }


def solve_json(result) -> dict:
    """Manifest summary of one branch-and-bound solve."""
    return {
        "status": result.status,
        "upper_bound": result.upper_bound,
        "lower_bound": None
        if result.lower_bound in (float("inf"), float("-inf"))
        else result.lower_bound,
        "nodes": result.nodes_explored,
        "wall_time": result.wall_time,
    }


# json's C encoder, one value per line: the text of each of a list of
# scalars is ``_encode_lines(values)[1:-1].split("\n")``, exact because an
# encoded scalar holds no raw newline.
_encode_lines = json.JSONEncoder(separators=("\n", ": "), allow_nan=False).encode


def _scalar_texts(values: list) -> list:
    """The JSON text of each scalar of ``values``, in one encoder call."""
    return _encode_lines(values)[1:-1].split("\n") if values else []


def _exact(k: int, total: int) -> str:
    """``str(Fraction(k, total))``."""
    g = math.gcd(k, total)
    return str(k // g) if g == total else f"{k // g}/{total // g}"


def _row_texts(measures, fmt) -> list:
    """``fmt(lower, upper, certified, total)`` of each row of the
    ``Measures`` table ``measures``: each distinct row is formatted once
    and its entries share the text."""
    rows = list(zip(
        measures.lower.tolist(), measures.upper.tolist(), measures.certified.tolist()
    ))
    done = {row: fmt(*row, measures.total) for row in dict.fromkeys(rows)}
    return list(map(done.__getitem__, rows))


def _csv_cells(lower: int, upper: int, certified: bool, total: int) -> str:
    """CSV cells lower, upper, certified of one measure."""
    return f"{lower / total!r},{upper / total!r},{'true' if certified else 'false'}"


def _block(brackets: str, parts, depth: int) -> str:
    """A container at ``depth`` from its items' texts, as json's
    ``indent=2`` lays it out."""
    if not parts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(parts) + "\n" + "  " * depth + brackets[1]


def _object(formats: dict, depth: int) -> str:
    """The template of an object at ``depth`` whose values are ``formats``
    (%-formats), keys in ``sort_keys`` order."""
    return _block("{}", [f'"{key}": {fmt}' for key, fmt in formats.items()], depth)


_MEASURE = _object({
    "certified": "%s", "lower": "%r", "lower_exact": '"%s"', "upper": "%r", "upper_exact": '"%s"',
}, 3)
_ENTRY = _object({
    "ambiguity": "%s", "discrepancy": "%s", "epsilon": '"%s"', "epsilon_exact": '"%s"',
}, 2)
_PROFILE = _object({"baseline": "%s", "entries": "%s", "witnesses": "%s"}, 0)


def _measure_json(lower: int, upper: int, certified: bool, total: int) -> str:
    return _MEASURE % (
        "true" if certified else "false",
        lower / total, _exact(lower, total), upper / total, _exact(upper, total),
    )


def _sides(profile: MultiplicityProfile, fmt, absent: str) -> list:
    """``_row_texts`` of the discrepancy and the ambiguity table of
    ``profile``; ``absent`` at every entry of a side that was not
    measured."""
    size = len(profile.grid.values)
    return [
        [absent] * size if m is None else _row_texts(m, fmt)
        for m in (profile.discrepancy, profile.ambiguity)
    ]


def _witnesses_json(keys, witnesses) -> str:
    """The witnesses object at depth 1: the witness of each grid value that
    has one, keyed by ``str(eps)`` (``keys``); each distinct classifier's
    coefficient list is encoded once."""
    texts, items = {}, []
    for key, w in sorted(zip(keys, witnesses), key=itemgetter(0)):
        if w is None:
            continue
        if id(w) not in texts:
            texts[id(w)] = _block("[]", _scalar_texts(list(w.coefficients)), 2)
        items.append(f'"{key}": {texts[id(w)]}')
    return _block("{}", items, 1)


def _profile_json(profile: MultiplicityProfile, labels) -> str:
    """``profile`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes
    its dict at depth 0; ``labels``: the epsilon label of each grid value
    (``epsilon_labels``)."""
    disc, amb = _sides(profile, _measure_json, "null")
    exact = list(map(str, profile.grid.values))
    baseline = json.dumps(risk_json(profile.baseline), indent=2, sort_keys=True)
    entries = [_ENTRY % row for row in zip(amb, disc, labels, exact, strict=True)]
    witnesses = _witnesses_json(exact, profile.witnesses)
    return _PROFILE % (baseline.replace("\n", "\n  "), _block("[]", entries, 1), witnesses)


def _profile_csv(profile: MultiplicityProfile, labels) -> str:
    """``labels``: the epsilon label of each grid value (``epsilon_labels``)."""
    disc, amb = _sides(profile, _csv_cells, ",,")
    lines = [
        "epsilon,disc_lower,disc_upper,disc_certified,amb_lower,amb_upper,amb_certified"
    ]
    lines += [f"{label},{d},{a}" for label, d, a in zip(labels, disc, amb, strict=True)]
    return "\n".join(lines) + "\n"


def write_profile(outdir: Path, profile: MultiplicityProfile, labels) -> None:
    """``labels``: the epsilon label of each grid value (``epsilon_labels``)."""
    (outdir / "profile.json").write_text(
        _profile_json(profile, labels) + "\n", encoding="utf-8"
    )
    (outdir / "profile.csv").write_text(_profile_csv(profile, labels), encoding="utf-8")


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None  # JSON has no inf or NaN


def _float_texts(column: np.ndarray, convert=None) -> list:
    """The JSON text of each value of the float column ``column`` (of
    ``convert(value)`` when given): each distinct bit pattern, so that 0.0
    and -0.0 stay apart, is encoded once."""
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = distinct.view(np.float64).tolist()
    if convert is not None:
        values = list(map(convert, values))
    return np.array(_scalar_texts(values), dtype=object)[inverse].tolist()


_MODEL = _object({
    "alpha": "%s", "converged": "%s", "cv_risk": "%s", "lambda": "%s", "train_mistakes": "%d",
}, 2)
_POOL = _object({
    "baseline_alpha": "%s", "baseline_cv_risk": "%s", "baseline_index": "%d",
    "baseline_lambda": "%s", "models": "%s", "n_models": "%d", "profile": "%s",
}, 0)


def write_pool(
    outdir: Path, pool, adhoc_profile: MultiplicityProfile, labels, base_idx: int
) -> None:
    """``pool``: a nonempty ``pool.Pool`` whose baseline is model
    ``base_idx``; ``labels``: the epsilon label of each grid value of
    ``adhoc_profile``.  The models table is read off the pool's five
    columns, each column encoded at once, and each model's texts fill one
    template; the baseline's fields are its model's texts."""
    alphas = _float_texts(pool.alphas)
    cv_risks = _float_texts(pool.cv_risks, _finite)
    lambdas = _scalar_texts(pool.lambdas.tolist())
    converged = ["true" if c else "false" for c in pool.converged.tolist()]
    rows = zip(alphas, converged, cv_risks, lambdas, pool.mistakes.tolist())
    models = _block("[]", [_MODEL % row for row in rows], 1)
    profile = _profile_json(adhoc_profile, labels).replace("\n", "\n  ")
    text = _POOL % (
        alphas[base_idx], cv_risks[base_idx], base_idx, lambdas[base_idx], models,
        len(pool), profile,
    )
    (outdir / "pool.json").write_text(text + "\n", encoding="utf-8")


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it in a row of several fields."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value, ""])
    return buffer.getvalue()[: -len(",\n")]


def write_burden(outdir: Path, flip_pool, dataset, grid, labels) -> None:
    """``labels``: the epsilon label of each grid value (``epsilon_labels``)."""
    thresholds = grid.thresholds(flip_pool.baseline_mistakes)
    burden = burden_path(flip_pool, dataset, thresholds)
    groups = [  # each group's lines, in grid order
        [f"{name},{label},{cells}" for label, cells in zip(labels, column, strict=True)]
        for name, column in zip(
            map(_csv_field, burden), (_row_texts(m, _csv_cells) for m in burden.values())
        )
    ]
    lines = ["group,epsilon,amb_lower,amb_upper,certified", *chain(*zip(*groups))]
    with open(outdir / "burden.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
