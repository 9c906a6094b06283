"""Test-only MPS reader: rebuilds a MipModel from an exported file."""

import numpy as np

from multiplicity.branch_bound import MipModel
from multiplicity.simplex import LinearProgram

_REL = {"L": "<=", "G": ">=", "E": "="}


def read_mps(path) -> MipModel:
    sections = {"ROWS": [], "COLUMNS": [], "RHS": [], "BOUNDS": []}
    current = None
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("NAME")
    assert lines[-1] == "ENDATA"
    for line in lines[1:-1]:
        tag = line.strip()
        if tag in sections and not line.startswith(" "):
            current = tag
            continue
        sections[current].append(line)

    row_order = []
    row_rel = {}
    obj_row = None
    for line in sections["ROWS"]:
        kind, name = line.split()
        if kind == "N":
            obj_row = name
        else:
            row_order.append(name)
            row_rel[name] = _REL[kind]
    assert obj_row is not None

    col_order = []
    col_entries = {}
    binaries = set()
    integer_mode = False
    for line in sections["COLUMNS"]:
        parts = line.split()
        if "'MARKER'" in line:
            integer_mode = "'INTORG'" in line
            continue
        name = parts[0]
        if name not in col_entries:
            col_entries[name] = {}
            col_order.append(name)
            if integer_mode:
                binaries.add(name)
        for rname, val in zip(parts[1::2], parts[2::2]):
            col_entries[name][rname] = float(val)

    rhs = {name: 0.0 for name in row_order + [obj_row]}
    for line in sections["RHS"]:
        parts = line.split()
        for rname, val in zip(parts[1::2], parts[2::2]):
            rhs[rname] = float(val)

    n = len(col_order)
    m = len(row_order)
    col_index = {name: j for j, name in enumerate(col_order)}
    row_index = {name: k for k, name in enumerate(row_order)}
    A = np.zeros((m, n))
    c = np.zeros(n)
    for name, entries in col_entries.items():
        j = col_index[name]
        for rname, val in entries.items():
            if rname == obj_row:
                c[j] = val
            else:
                A[row_index[rname], j] = val

    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    for line in sections["BOUNDS"]:
        kind, _, name, val = line.split()
        j = col_index[name]
        if kind == "LO":
            lo[j] = float(val)
        elif kind == "UP":
            hi[j] = float(val)
        elif kind == "FX":
            lo[j] = hi[j] = float(val)
        elif kind == "BV":
            lo[j], hi[j] = 0.0, 1.0
            binaries.add(name)
    assert np.all(np.isfinite(hi)), "exporter always writes explicit bounds"

    lp = LinearProgram(
        objective=c,
        row_coefs=A,
        row_relations=tuple(row_rel[name] for name in row_order),
        row_rhs=np.array([rhs[name] for name in row_order]),
        var_lo=lo,
        var_hi=hi,
    )
    return MipModel(
        lp=lp,
        binary_vars=tuple(sorted(col_index[name] for name in binaries)),
        metadata={"kind": "reimported"},
        objective_offset=-rhs[obj_row],
    )
