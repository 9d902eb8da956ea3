"""Line-oriented module definition files.

    # optional comments
    module <name> over <algebra>
    generator <label> degree <d>
    action <generator-element> <label> = <label> [+ <label> ...]

The algebra token is A(0)..A(3) or E(1)..E(3) (also accepted without
parentheses, e.g. A1).  Action lines name an algebra generator in element
syntax (Sq^k or P(1,s)); omitted actions are zero.  Serialization is
deterministic, so define -> serialize round-trips byte-for-byte after
whitespace normalization.
"""

from __future__ import annotations

import re

from .f2linalg import F2Matrix, vec_support
from . import steenrod
from .module import GradedModule
from .steenrod import SubHopfAlgebra


class ModuleFileError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = "" if line is None else f" (line {line}" + \
              ("" if column is None else f", column {column}") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


_ALGEBRA_RE = re.compile(r"^([AE])\(?(\d+)\)?$")


def parse_algebra(token: str) -> SubHopfAlgebra:
    """Resolve an algebra token like A(1) or E(2) to its preset."""
    m = _ALGEBRA_RE.match(token.strip())
    if not m:
        raise ModuleFileError(f"unknown algebra {token!r}")
    kind, n = m.group(1), int(m.group(2))
    try:
        return steenrod.A(n) if kind == "A" else steenrod.E(n)
    except ValueError as exc:
        raise ModuleFileError(f"unsupported algebra {token!r}: {exc}") from exc


def algebra_token(alg: SubHopfAlgebra) -> str:
    if alg.kind in ("A", "E") and alg.kind_param == alg.ambient:
        return f"{alg.kind}({alg.kind_param})"
    raise ModuleFileError(f"algebra {alg.name} has no file token")


def _find_generator(alg: SubHopfAlgebra, token: str, line: int) -> int:
    try:
        elt = steenrod.parse_element(token, alg.ambient)
    except ValueError as exc:
        raise ModuleFileError(str(exc), line) from exc
    for gi, g in enumerate(alg.generators):
        if g.terms == elt.terms:
            return gi
    raise ModuleFileError(f"{token} is not a generator of {alg.name}", line)


def parse_module(text: str, name_hint: str | None = None) -> GradedModule:
    """Parse a module definition file into a validated-shape GradedModule."""
    alg: SubHopfAlgebra | None = None
    name = name_hint or "module"
    gens: list[tuple[str, int]] = []
    where: dict[str, tuple[int, int]] = {}  # label -> (degree, index in degree)
    per_degree: dict[int, list[str]] = {}
    action_lines: list[tuple[int, int, str, list[str]]] = []  # (line, gi, src, targets)
    gen_index: dict[str, int] = {}  # action token -> generator index over alg

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "module":
            if alg is not None:
                raise ModuleFileError("second module header", ln)
            if len(parts) != 4 or parts[2] != "over":
                raise ModuleFileError("expected: module <name> over <algebra>", ln)
            name = parts[1]
            try:
                alg = parse_algebra(parts[3])
            except ModuleFileError as exc:
                raise ModuleFileError(str(exc), ln) from exc
        elif parts[0] == "generator":
            if alg is None:
                raise ModuleFileError("generator line before module header", ln)
            if len(parts) != 4 or parts[2] != "degree":
                raise ModuleFileError("expected: generator <label> degree <d>", ln)
            label = parts[1]
            if label in where:
                raise ModuleFileError(f"duplicate basis label {label}", ln)
            try:
                d = int(parts[3])
            except ValueError:
                raise ModuleFileError(f"bad degree {parts[3]!r}", ln, column=line.find(parts[3]))
            per_degree.setdefault(d, []).append(label)
            where[label] = (d, len(per_degree[d]) - 1)
            gens.append((label, d))
        elif parts[0] == "action":
            if alg is None:
                raise ModuleFileError("action line before module header", ln)
            m = re.match(r"action\s+(\S+)\s+(\S+)\s*=\s*(.+)$", line)
            if not m:
                raise ModuleFileError("expected: action <gen> <label> = <label> [+ ...]", ln)
            token = m.group(1)
            gi = gen_index.get(token)
            if gi is None:
                gi = gen_index[token] = _find_generator(alg, token, ln)
            src = m.group(2)
            targets = [t.strip() for t in m.group(3).split("+")]
            action_lines.append((ln, gi, src, targets))
        else:
            raise ModuleFileError(f"unrecognized directive {parts[0]!r}", ln,
                                  column=raw.find(parts[0]))
    if alg is None:
        raise ModuleFileError("missing module header")

    cols: dict[tuple[int, int], dict[int, int]] = {}  # (gi, degree) -> {src idx: packed}
    seen_actions: set[tuple[int, str]] = set()
    for ln, gi, src, targets in action_lines:
        if src not in where:
            raise ModuleFileError(f"unknown basis label {src}", ln)
        if (gi, src) in seen_actions:
            raise ModuleFileError(f"duplicate action line for {src}", ln)
        seen_actions.add((gi, src))
        d, si = where[src]
        g = alg.gen_degrees[gi]
        vec = 0
        for k, t in enumerate(targets):
            if t not in where:
                raise ModuleFileError(f"unknown basis label {t}", ln)
            if t in targets[:k]:
                raise ModuleFileError(f"target {t} repeated", ln)
            td, ti = where[t]
            if td != d + g:
                raise ModuleFileError(
                    f"target {t} has degree {td}, expected {d + g}", ln)
            vec ^= 1 << ti
        cols.setdefault((gi, d), {})[si] = vec

    actions: dict[int, dict[int, F2Matrix]] = {}
    for (gi, d), colmap in cols.items():
        g = alg.gen_degrees[gi]
        width = len(per_degree.get(d, []))
        height = len(per_degree.get(d + g, []))
        columns = [colmap.get(i, 0) for i in range(width)]
        actions.setdefault(gi, {})[d] = F2Matrix.from_cols(columns, height)
    labels = {d: tuple(ls) for d, ls in per_degree.items()}
    return GradedModule(alg, labels, actions, meta={"name": name})


def action_entries(m: GradedModule):
    """(generator name, source label, target labels) of every nonzero
    generator action on a basis element, in file order."""
    alg = m.algebra
    for gi, gname in enumerate(alg.gen_names):
        per_degree = m.actions.get(gi, {})
        g = alg.gen_degrees[gi]
        for d in sorted(per_degree):
            sources, targets = m.labels[d], m.labels[d + g]
            for j, col in enumerate(per_degree[d].columns):
                if col:
                    yield gname, sources[j], [targets[i] for i in vec_support(col)]


def serialize_module(m: GradedModule, name: str | None = None) -> str:
    """Deterministic module file for a module over an A(n)/E(n) preset."""
    alg = m.algebra
    clean = re.sub(r"\s+", "", name or m.meta.get("name", "module"))
    lines = [f"module {clean} over {algebra_token(alg)}"]
    for d in m.degrees():
        for label in m.labels[d]:
            lines.append(f"generator {label} degree {d}")
    for gname, src, targets in action_entries(m):
        lines.append(f"action {gname} {src} = " + " + ".join(targets))
    return "\n".join(lines) + "\n"
