#!/usr/bin/env python3
"""Rebuild every shipped fixture from first principles and diff against the
packaged .mod files.  Demonstrates that the library is reproducible data.

Exits with status 1 when a construction is invalid or is not isomorphic to
its packaged file.

Run:  python demos/rebuild_fixture_library.py
"""

import sys

from stmod import fixtures, modfile
from stmod.module import validate
from stmod.stable import iso_test

refs = fixtures.reference_constructions()
shipped = set(fixtures.fixture_names())
print(f"{len(refs)} reference constructions, {len(shipped)} shipped files")
assert shipped == set(refs), "registry and constructions disagree"

failed = []
for name in sorted(refs):
    built = refs[name]
    problems = validate(built)
    packaged = fixtures.load_fixture(name)
    same_file = modfile.serialize_module(built, name=name) == \
        "\n".join(fixtures.fixture_path_text(name).splitlines()[1:]) + "\n"
    agree = iso_test(packaged, built) is not None
    status = "byte-identical" if same_file else ("isomorphic" if agree else "MISMATCH")
    print(f"  {name:28s} dim {built.total_dim:3d}  valid={not problems}  {status}")
    if problems or status == "MISMATCH":
        failed.append(name)

print()
if failed:
    print(f"not certified: {', '.join(failed)}")
    sys.exit(1)
print("every packaged fixture is certified against its construction.")
