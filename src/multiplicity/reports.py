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
value (``epsilon_labels``), made once and passed to every writer.  Each
measure arrives as a ``profiles.Measures`` table of counts; a report
formats each distinct (lower, upper, certified) row of it once, keyed by
value, and the entries that repeat a row share its text or dict.

Every JSON file goes through ``write_json``, whose bytes are those of
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``.  It
hands runs of scalars to json's C encoder, a depth of the payload at a
time, and encodes a container that repeats at one depth (a shared
measure dict) once.  ``write_pool`` reads the columns of a ``pool.Pool``,
not one object per model.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import chain, compress, groupby, islice, repeat
from operator import itemgetter, not_
from pathlib import Path
from typing import Optional

from .pool import pool_baseline_index
from .profiles import MultiplicityProfile, burden_path


def exact_decimal(value: Fraction) -> str:
    """Shortest exact decimal when the denominator is 2^a 5^b, float repr
    otherwise."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    d = frac.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d != 1:
        return repr(float(frac))
    shift = 0
    scaled = frac
    while scaled.denominator != 1:
        scaled *= 10
        shift += 1
    digits = str(abs(scaled.numerator)).rjust(shift + 1, "0")
    sign = "-" if frac < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def epsilon_labels(values) -> list:
    """The ``exact_decimal`` label of each epsilon, in order."""
    return [exact_decimal(v) for v in values]


_CONTAINERS = (dict, list, tuple)
# json's C encoder, one scalar per line: the text of a run of scalars is
# ``encode(run)[1:-1].split("\n")``, exact because an encoded scalar is
# ASCII and holds no raw newline.
_encode_run = json.JSONEncoder(separators=("\n", ": "), allow_nan=False).encode


def _run(scalars) -> list:
    return _encode_run(scalars)[1:-1].split("\n") if scalars else []


def _block(brackets: str, parts, depth: int) -> str:
    """A container at ``depth`` from its items' texts, as json's
    ``indent=2`` lays it out."""
    if not parts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(parts) + "\n" + "  " * depth + brackets[1]


def _key_text(key) -> str:
    """A dict key as json converts it to a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode_run([key])[1:-1]
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _typed_keys(d: dict) -> tuple:
    """The keys of ``d``, each with its type."""
    return tuple(zip(d, map(type, d)))


def _key_groups(dicts) -> list:
    """(sorted keys, dicts) for each key set of ``dicts``, in first-seen
    order."""
    groups = {}
    for keys, run in groupby(dicts, dict.keys):
        if all(type(k) is str for k in keys):
            keys = tuple(sorted(keys))
            groups.setdefault(keys, (keys, []))[1].extend(run)
            continue
        # equal keys of other types, such as 0, 0.0 and False, are other json names
        for typed, part in groupby(run, _typed_keys):
            typed = tuple(sorted(typed, key=itemgetter(0)))
            groups.setdefault(typed, (tuple(k for k, _ in typed), []))[1].extend(part)
    return list(groups.values())


def _values(items: list, depth: int) -> list:
    """The text of each of ``items`` as a value at ``depth``.

    The payload is encoded a depth at a time: the items of every list at
    one depth and the values of every dict there go to one ``_values`` call
    a depth down, so the scalars of each depth are one run, and the keys of
    its dicts another.  A container that appears twice at one depth is
    encoded once.
    """
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, items))):
        return _run(items)
    nested = list(map(isinstance, items, repeat(_CONTAINERS)))
    containers = list(compress(items, nested))
    texts = _containers(dict(zip(map(id, containers), containers)), depth)
    texts = map(texts.__getitem__, map(id, containers))
    if len(containers) == len(items):
        return list(texts)
    scalars = iter(_run(list(compress(items, map(not_, nested)))))
    return list(map(next, map((scalars, texts).__getitem__, nested)))


def _containers(objs: dict, depth: int) -> dict:
    """The text of each container of ``objs`` (by id) at ``depth``.  Dicts
    that share a key set read their values a column at a time and fill one
    template."""
    arrays = [v for v in objs.values() if not isinstance(v, dict)]
    groups = _key_groups([v for v in objs.values() if isinstance(v, dict)])
    column_values = (map(itemgetter(k), group) for keys, group in groups for k in keys)
    texts = iter(_values(list(chain(*arrays, *column_values)), depth + 1))
    names = iter(_run([_key_text(k) for keys, _ in groups for k in keys]))
    done = {id(a): _block("[]", list(islice(texts, len(a))), depth) for a in arrays}
    for keys, group in groups:
        template = _block("{}", [next(names).replace("%", "%%") + ": %s" for _ in keys], depth)
        columns = [list(islice(texts, len(group))) for _ in keys]
        rows = zip(*columns) if keys else [()] * len(group)
        done.update(zip(map(id, group), map(template.__mod__, rows)))
    return done


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, byte for byte.

    json encodes with ``indent`` in pure Python, one value at a time.  Here
    every run of scalars goes through json's C encoder in one call
    (``_values``): at least the values of a flat container, or a column of
    dicts that share a key set.  A payload that json rejects raises json's
    own error; one nested too deep for this encoder is written by json.
    """
    try:
        text = _values([payload], 0)[0]
    except (TypeError, ValueError, RecursionError):
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


def _measure_json(m) -> Optional[dict]:
    if m is None:
        return None
    return {
        "lower": float(m.lower),
        "upper": float(m.upper),
        "lower_exact": str(m.lower),
        "upper_exact": str(m.upper),
        "certified": m.certified,
    }


def _measure_cells(m) -> list:
    """CSV cells lower, upper, certified; empty when the measure is absent."""
    if m is None:
        return ["", "", ""]
    return [repr(float(m.lower)), repr(float(m.upper)), "true" if m.certified else "false"]


def _formatted(measures, fmt, size: int) -> list:
    """``fmt`` of each row of the ``Measures`` table ``measures``, or of
    None ``size`` times when it is absent.  Each distinct (lower, upper,
    certified) row is read and formatted once; its entries share the
    result."""
    if measures is None:
        return [fmt(None)] * size
    columns = (measures.lower, measures.upper, measures.certified)
    keys = list(zip(*(c.tolist() for c in columns)))
    # rows of one key are equal, so any of them formats it
    done = {key: fmt(measures[i]) for key, i in dict(zip(keys, range(len(keys)))).items()}
    return [done[key] for key in keys]


def _sides(profile: MultiplicityProfile, fmt) -> list:
    """``_formatted`` discrepancy and ambiguity rows of ``profile``."""
    size = len(profile.grid.values)
    return [_formatted(m, fmt, size) for m in (profile.discrepancy, profile.ambiguity)]


def profile_json(profile: MultiplicityProfile, labels) -> dict:
    """``labels``: the epsilon label of each grid value (``epsilon_labels``)."""
    return {
        "baseline": risk_json(profile.baseline),
        "entries": [
            {
                "epsilon": label,
                "epsilon_exact": str(eps),
                "discrepancy": disc,
                "ambiguity": amb,
            }
            for label, eps, disc, amb in zip(
                labels, profile.grid.values, *_sides(profile, _measure_json), strict=True
            )
        ],
        "witnesses": {
            str(eps): list(w.coefficients)
            for eps, w in sorted(profile.witnesses.items())
        },
    }


def profile_csv_lines(profile: MultiplicityProfile, labels) -> list:
    """``labels``: the epsilon label of each grid value (``epsilon_labels``)."""
    disc, amb = _sides(profile, lambda m: ",".join(_measure_cells(m)))
    lines = [
        "epsilon,disc_lower,disc_upper,disc_certified,amb_lower,amb_upper,amb_certified"
    ]
    lines += [f"{label},{d},{a}" for label, d, a in zip(labels, disc, amb, strict=True)]
    return lines


def write_profile(outdir: Path, profile: MultiplicityProfile, labels) -> None:
    """``labels``: the epsilon label of each grid value (``epsilon_labels``)."""
    write_json(outdir / "profile.json", profile_json(profile, labels))
    (outdir / "profile.csv").write_text(
        "\n".join(profile_csv_lines(profile, labels)) + "\n", encoding="utf-8"
    )


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None  # JSON has no inf or NaN


def write_pool(outdir: Path, pool, adhoc_profile: MultiplicityProfile, labels) -> None:
    """``pool``: a ``pool.Pool``; ``labels``: the epsilon label of each
    grid value of ``adhoc_profile``."""
    base_idx = pool_baseline_index(pool)
    base = pool[base_idx]
    columns = (pool.alphas, pool.lambdas, pool.mistakes, pool.cv_risks, pool.converged)
    write_json(
        outdir / "pool.json",
        {
            "n_models": len(pool),
            "baseline_index": base_idx,
            "baseline_alpha": base.alpha,
            "baseline_lambda": base.lam,
            "baseline_cv_risk": _finite(base.cv_risk),
            "profile": profile_json(adhoc_profile, labels),
            "models": [
                {
                    "alpha": alpha,
                    "lambda": lam,
                    "train_mistakes": mistakes,
                    "cv_risk": _finite(cv_risk),
                    "converged": converged,
                }
                for alpha, lam, mistakes, cv_risk, converged in zip(
                    *(c.tolist() for c in columns)
                )
            ],
        },
    )


def write_burden(outdir: Path, flip_pool, dataset, grid, labels) -> None:
    """``labels``: the epsilon label of each grid value (``epsilon_labels``)."""
    thresholds = grid.thresholds(flip_pool.baseline_mistakes)
    burden = burden_path(flip_pool, dataset, thresholds)
    columns = [_formatted(m, _measure_cells, len(labels)) for m in burden.values()]
    rows = [["group", "epsilon", "amb_lower", "amb_upper", "certified"]]
    for label, row in zip(labels, zip(*columns), strict=True):
        rows.extend([group, label] + c for group, c in zip(burden, row))
    with open(outdir / "burden.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
