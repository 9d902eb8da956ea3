"""The pinned closure tables of the presets A(0)..A(3) and E(0)..E(3): the
state that ``steenrod.subalgebra_closure`` reaches from each preset's
generators, in the layout that ``steenrod._preset`` reads.

    PYTHONPATH=src python tests/closure_tables.py

rewrites every table in src/stmod/tables/ from a fresh closure.  The tests
compare the committed files with ``table_text`` byte for byte.
"""

import json
import os

from stmod import steenrod as st

PRESETS = [(kind, n) for kind in "AE" for n in range(st._PINNED + 1)]


def table_path(kind: str, n: int) -> str:
    return os.path.join(st._TABLES, f"{kind}{n}.json")


def table_text(kind: str, n: int) -> str:
    """The closure of the preset's generators inside A(n), as JSON: its
    words (parent id, last letter, degree), its basis in canonical order
    (degree, vector over the Milnor terms of the degree, sorted word ids)
    and its right columns per generator and degree."""
    gens, names = st._preset_generators(kind, n, n)
    alg = st.subalgebra_closure(gens, n, names=names)
    place = st._graded_basis(n)[1]
    basis = [[d, sum(place[t][1] for t in b.terms), sorted(ids)]
             for b, d, ids in zip(alg.basis, alg.basis_degrees, alg._expression_ids)]
    table = {"words": alg._words, "basis": basis, "right": alg._right}
    return json.dumps(table, separators=(",", ":")) + "\n"


if __name__ == "__main__":
    os.makedirs(st._TABLES, exist_ok=True)
    for kind, n in PRESETS:
        with open(table_path(kind, n), "w", encoding="ascii", newline="\n") as fh:
            fh.write(table_text(kind, n))
        print(table_path(kind, n))
