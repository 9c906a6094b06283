"""The report writers against reference encoders: ``reports.write_json``
against ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``;
the count-table writers of ``profile.*``, ``burden.csv`` and ``pool.json``
against ``json.dumps`` and ``csv.writer`` on the payloads and rows that
``tests/oracles.py`` builds one grid point at a time; and the manifest's
summary of a solve."""

import csv
import io
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multiplicity.branch_bound import SolveBudget, solve
from multiplicity.cli import RunConfig, run_audit
from multiplicity.core import Dataset, Example, RiskReport
from multiplicity.formulations import build_baseline_mip
from multiplicity.pool import Pool
from multiplicity.profiles import (
    EpsilonGrid,
    Measures,
    MultiplicityProfile,
    PathologicalPool,
    burden_path,
)
from multiplicity.reports import (
    epsilon_labels,
    exact_decimal,
    solve_json,
    write_burden,
    write_json,
    write_pool,
    write_profile,
)
from conftest import xor_dataset

DATA = Path(__file__).parent / "data"

# control characters, a line separator, non-ASCII and the formatting
# character of the writer's row templates
SPECIAL = st.sampled_from(["\n", "\x00", "\x1f", "\"", "\\", " ", "é", "日本", "%", "%s"])
TEXT = st.one_of(st.text(max_size=6), st.lists(SPECIAL, max_size=3).map("".join))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False, allow_infinity=False), children, max_size=3),
        # tables: dicts that share a key set, and dicts that almost do
        st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(
            lambda keys: st.lists(
                st.fixed_dictionaries({k: children for k in keys}), min_size=1, max_size=4
            )
        ),
        st.lists(
            st.fixed_dictionaries({"a": children}, optional={"b": children}), max_size=4
        ),
        # one object at several places, at equal and at unequal depths
        children.map(lambda v: [v, v, {"x": v}, [v]]),
        children.map(lambda v: {"p": [v], "q": [v], "r": v}),
    )


PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=25)
BAD = st.sampled_from([math.nan, math.inf, -math.inf, object(), {1, 2}, b"x", 1j])


def _reference(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _write(directory, payload):
    """The bytes ``write_json`` writes."""
    path = directory / "out.json"
    path.unlink(missing_ok=True)
    write_json(path, payload)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(payload=PAYLOADS)
# equal keys of other types name other members: "0", "0.0" and "false"
@example(payload=[{0: 1}, {0.0: 1}, {False: 1}, {0: 1, 1.0: 2}, {1: 2, 0.0: 1}])
@example(payload=[{"a": 1}, {"a": [{"b": 2}, {3: 4}]}])
def test_bytes_match_json_dumps(tmp_path_factory, payload):
    expected = (_reference(payload) + "\n").encode("ascii")
    assert _write(tmp_path_factory.getbasetemp(), payload) == expected


def _plant(payload, bad, where):
    """``payload`` with ``bad`` in it: beside its scalars or inside a copy
    of one of its containers; ``where`` picks the container."""
    containers = []

    def walk(v):
        if isinstance(v, dict):
            containers.append(v)
            for child in v.values():
                walk(child)
        elif isinstance(v, list):
            containers.append(v)
            for child in v:
                walk(child)

    payload = json.loads(json.dumps(payload))  # fresh containers, tuples as lists
    walk(payload)
    if not containers:
        return [payload, bad]
    target = containers[where % len(containers)]
    if isinstance(target, dict):
        target["\uffff"] = bad  # last in key order
    else:
        target.append(bad)
    return payload


@settings(max_examples=200, deadline=None)
@given(payload=PAYLOADS, bad=BAD, where=st.integers(0, 50))
def test_rejected_payloads_raise_json_errors(tmp_path_factory, payload, bad, where):
    payload = _plant(payload, bad, where)
    with pytest.raises((TypeError, ValueError)) as expected:
        _reference(payload)
    path = tmp_path_factory.getbasetemp() / "rejected.json"
    path.unlink(missing_ok=True)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        write_json(path, payload)
    assert not path.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        "top",
        None,
        [{}, {}],
        [[], {}, ()],
        {"a": [], "b": {}},
        [{"k%s": 1, "%": "%d"}, {"k%s": 2, "%": "%%"}],
        {3: "int", 1.5: "float", -2: "neg"},
        {True: 1, False: 0},
        [{"t": [{"u": 1}, {"u": 2}]}, {"t": [{"u": 3}]}],
        [{"a": 1}, {"b": 2}, 3],
    ],
)
def test_edge_payloads_match_json_dumps(tmp_path, payload):
    assert _write(tmp_path, payload) == (_reference(payload) + "\n").encode("ascii")


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"a": 1, 2: 3}, TypeError),  # keys json cannot sort
        ({(1, 2): 3}, TypeError),
        ({math.nan: 1}, ValueError),
        ([[1, math.inf]], ValueError),
        ([{"a": math.nan}, {"a": 1.0}], ValueError),
    ],
)
def test_edge_rejections_match_json_dumps(tmp_path, payload, error):
    with pytest.raises(error) as expected:
        _reference(payload)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        write_json(tmp_path / "out.json", payload)


def test_cycles_raise_json_error(tmp_path):
    cycle = {"a": []}
    cycle["a"].append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_json(tmp_path / "out.json", cycle)


def test_too_deep_for_the_encoder_is_written_by_json(tmp_path):
    # json nests one frame per level; a payload 600 levels deep is written
    # as json.dumps writes it
    payload = []
    for _ in range(600):
        payload = [payload, 1]
    write_json(tmp_path / "out.json", payload)
    assert (tmp_path / "out.json").read_text() == _reference(payload) + "\n"


def test_a_solve_stopped_before_its_root_lp_has_no_lower_bound():
    # past its deadline a solve runs no LP, so its bound is -inf: null
    model = build_baseline_mip(xor_dataset())
    result = solve(model, SolveBudget(deadline=time.monotonic() - 1))
    assert result.nodes_explored == 0 and result.lower_bound == -math.inf
    assert solve_json(result) == {
        "status": "no_incumbent", "upper_bound": None, "lower_bound": None, "nodes": 0,
        "wall_time": result.wall_time,
    }


# -- the count-table writers ---------------------------------------------------

# totals whose reduced shares have denominators of only 2s and 5s, totals
# with other prime factors, and any total
TOTALS = st.one_of(
    st.sampled_from([1, 2, 5, 8, 10, 16, 25, 40, 100, 125, 3, 7, 112, 603, 1206]),
    st.integers(1, 3000),
)
COEFFICIENTS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-05, -1e-05, 1.0, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# group names that csv must quote, and ones it must not
GROUPS = st.sampled_from(["A", "B", "a,b", 'say "hi"', "line\nbreak", "cr\rx", "", " x", "é"])


@st.composite
def tables(draw, total, size, caps=None):
    """A ``Measures`` table of ``size`` rows out of ``total``, monotone
    down its rows and within ``caps`` when given, with few distinct rows."""
    points = draw(st.lists(st.integers(0, total), min_size=1, max_size=3))
    lows = sorted(draw(st.lists(st.sampled_from(points), min_size=size, max_size=size)))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=size, max_size=size))
    ups = np.maximum.accumulate(np.minimum(np.add(lows, gaps), total))
    if caps is not None:
        lows, ups = np.minimum(lows, caps), np.minimum(ups, caps)
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return Measures(lows, ups, np.asarray(flags) & (lows == ups), total)


@st.composite
def grids(draw, n):
    counts = draw(st.lists(st.integers(0, n), min_size=1, max_size=8, unique=True))
    return EpsilonGrid(tuple(Fraction(k, n) for k in sorted(counts)), n)


@st.composite
def profiles(draw):
    """A profile whose sides may be absent or open, with witnesses that one
    classifier may share across many epsilons."""
    n = draw(TOTALS)
    grid = draw(grids(n))
    size = len(grid.values)
    base = draw(st.integers(0, n))
    disc = draw(st.none() | tables(n, size, grid.caps(base)))
    amb = draw(st.none() | tables(n, size))
    classifiers = [
        SimpleNamespace(coefficients=tuple(draw(st.lists(COEFFICIENTS, max_size=4))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    picks = draw(st.lists(st.integers(-1, len(classifiers) - 1), min_size=size, max_size=size))
    witnesses = [classifiers[pick] if pick >= 0 else None for pick in picks]
    if draw(st.booleans()):
        witnesses = []  # no side with witnesses
    return MultiplicityProfile(RiskReport(base, n), grid, disc, amb, witnesses)


def _json_bytes(payload) -> bytes:
    return (_reference(payload) + "\n").encode("ascii")


def _csv_bytes(rows) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(profile=profiles())
def test_profile_files_match_the_reference(tmp_path_factory, profile):
    outdir = tmp_path_factory.mktemp("profile")
    labels = epsilon_labels(profile.grid.values)
    assert labels == [oracles.reference_decimal(v) for v in profile.grid.values]
    write_profile(outdir, profile, labels)
    assert (outdir / "profile.json").read_bytes() == _json_bytes(oracles.profile_json(profile))
    assert (outdir / "profile.csv").read_bytes() == _csv_bytes(oracles.profile_csv_rows(profile))


@st.composite
def pools(draw, n):
    """A ``Pool`` of a few models whose alphas and CV risks repeat, with
    0.0 beside -0.0 and CV risks that are not finite."""
    size = draw(st.integers(1, 6))

    def column(values):
        return draw(st.lists(values, min_size=size, max_size=size))

    coefficients = column(st.sampled_from([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [0.25, 0.75]]))
    return Pool(
        alphas=column(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-05])),
        lambdas=column(st.floats(1e-6, 1e6)),
        coefficients=coefficients,
        raw_coefficients=coefficients,
        mistakes=column(st.integers(0, n)),
        cv_risks=column(st.sampled_from([0.25, 0.0, -0.0, 1e-05, math.inf, math.nan])),
        converged=column(st.booleans()),
        n=n,
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pool_file_matches_the_reference(tmp_path_factory, data):
    profile = data.draw(profiles())
    pool = data.draw(pools(profile.baseline.n))
    base_idx = data.draw(st.integers(0, len(pool) - 1))
    outdir = tmp_path_factory.mktemp("pool")
    write_pool(outdir, pool, profile, epsilon_labels(profile.grid.values), base_idx)
    expected = _json_bytes(oracles.pool_json(pool, profile, base_idx))
    assert (outdir / "pool.json").read_bytes() == expected


@st.composite
def flip_tables(draw):
    """A grouped dataset, a per-cell flip table over its cells and a grid."""
    groups = draw(st.lists(GROUPS, min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([-1, 1]), st.sampled_from(groups),
                  st.integers(1, 3)),
        min_size=1, max_size=12,
    ))
    data = Dataset.build([Example((1.0, float(x)), y, group=g, weight=w) for x, y, g, w in rows])
    cells = len(data.cells.X)
    lower = np.array(draw(st.lists(st.integers(0, data.n), min_size=cells, max_size=cells)))
    gaps = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=cells, max_size=cells)))
    pool = PathologicalPool(
        classifiers=(None,) * cells, mistakes_lower=lower, mistakes_upper=lower + gaps,
        certified=gaps == 0, baseline_mistakes=draw(st.integers(0, data.n)),
    )
    return data, pool, draw(grids(data.n))


@settings(max_examples=150, deadline=None)
@given(tables=flip_tables())
@example(
    tables=(
        Dataset.build([
            Example((1.0, 0.0), 1, group='a,b\n"c"'), Example((1.0, 1.0), -1, group="B"),
        ]),
        PathologicalPool(
            (None, None), np.array([0, 1]), np.array([0, 2]), np.array([True, False]), 0
        ),
        EpsilonGrid((Fraction(0), Fraction(1, 2)), 2),
    ),
)
def test_burden_file_matches_the_reference(tmp_path_factory, tables):
    dataset, pool, grid = tables
    outdir = tmp_path_factory.mktemp("burden")
    write_burden(outdir, pool, dataset, grid, epsilon_labels(grid.values))
    burden = burden_path(pool, dataset, grid.thresholds(pool.baseline_mistakes))
    assert (outdir / "burden.csv").read_bytes() == _csv_bytes(oracles.burden_rows(burden, grid))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_witness_that_is_not_finite_raises_json_error(tmp_path, bad):
    grid = EpsilonGrid((Fraction(0), Fraction(1, 4)), 4)
    witness = SimpleNamespace(coefficients=(0.5, bad))
    profile = MultiplicityProfile(RiskReport(1, 4), grid, witnesses=(None, witness))
    message = "^Out of range float values are not JSON compliant"
    with pytest.raises(ValueError, match=message):
        _reference(oracles.profile_json(profile))
    with pytest.raises(ValueError, match=message):
        write_profile(tmp_path, profile, epsilon_labels(grid.values))
    assert not (tmp_path / "profile.json").exists()


@settings(max_examples=200, deadline=None)
@given(p=st.integers(-10**30, 10**30), q=st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda a, b, c: 2**a * 5**b * c, st.integers(0, 40), st.integers(0, 40),
              st.sampled_from([1, 1, 3, 7])),
))
def test_exact_decimal_matches_the_reference(p, q):
    assert exact_decimal(Fraction(p, q)) == oracles.reference_decimal(Fraction(p, q))


def test_reports_are_written_without_reading_a_measure_value(tmp_path):
    # the writers read the count tables, never a row's MeasureValue
    config = dict(
        dataset=str(DATA / "compas_style.csv"), label_column="two_year_recid",
        group_column="race", epsilons="0,0.01,0.02,0.05",
    )
    run_audit(RunConfig(outdir=str(tmp_path / "read"), **config))

    def refuse(self, i):
        raise AssertionError("a MeasureValue was read")

    with mock.patch.object(Measures, "__getitem__", refuse):
        run_audit(RunConfig(outdir=str(tmp_path / "counts"), **config))
    for name in ("profile.json", "profile.csv", "burden.csv"):
        assert (tmp_path / "counts" / name).read_bytes() == (tmp_path / "read" / name).read_bytes()
