"""Line-oriented module definition files.

    # optional comments
    module <name> over <algebra>
    generator <label> degree <d>
    action <generator-element> <label> = <label> [+ <label> ...]

Token rules:

- Tokens are separated by whitespace (spaces, tabs, any Unicode space);
  ``#`` starts a comment that runs to the end of the line; blank lines and
  any line ending (LF, CRLF, CR) are accepted.
- The algebra token is A(0)..A(3) or E(1)..E(3), with both parentheses or
  neither (A(1) or A1, never A(1 or A1)).
- A label is any run of characters without whitespace, ``+`` or ``#``;
  each label is declared once, on its generator line, before or after the
  action lines that name it.
- In an action line ``=`` and ``+`` may be unspaced (``a=b+c``).  The
  action token names an algebra generator in element syntax (Sq^k or
  P(1,s)); omitted actions are zero.

Errors are ModuleFileError, located by line (from 1) and, for a bad
directive, degree or label, by column (from 0, in the line as written).
Serialization is deterministic, so define -> serialize round-trips
byte-for-byte after whitespace normalization; a label the grammar cannot
hold is refused rather than written.
"""

from __future__ import annotations

import re

from .f2linalg import F2Matrix
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


# both parentheses or neither: A(1) or A1, never A(1 or A1)
_ALGEBRA_RE = re.compile(r"([AE])(?:\((\d+)\)|(\d+))$")
_ACTION_RE = re.compile(r"action\s+(\S+)\s+(\S+)\s*=\s*(.+)$")
_BAD_LABEL_RE = re.compile(r"[\s+#]")  # the characters no label may hold


def parse_algebra(token: str) -> SubHopfAlgebra:
    """Resolve an algebra token like A(1) or E(2) to its preset."""
    m = _ALGEBRA_RE.match(token.strip())
    if not m:
        raise ModuleFileError(f"unknown algebra {token!r}")
    kind, n = m.group(1), int(m.group(2) or m.group(3))
    try:
        return steenrod.A(n) if kind == "A" else steenrod.E(n)
    except ValueError as exc:
        raise ModuleFileError(f"unsupported algebra {token!r}: {exc}") from exc


def algebra_token(alg: SubHopfAlgebra) -> str:
    if alg.kind in ("A", "E") and alg.kind_param == alg.ambient:
        return f"{alg.kind}({alg.kind_param})"
    raise ModuleFileError(f"algebra {alg.name} has no file token")


def _token_column(raw: str, k: int) -> int:
    """Column (from 0, in the line as written) of the line's k-th token."""
    return [t.start() for t in re.finditer(r"\S+", raw)][k]


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
    """Parse a module definition file into a validated-shape GradedModule.

    Action lines may name labels declared further down, so their labels are
    resolved after the one pass over the lines: a malformed line anywhere is
    reported before an unknown or misplaced label in an action line.
    """
    alg: SubHopfAlgebra | None = None
    name = name_hint or "module"
    where: dict[str, tuple[int, int]] = {}  # label -> (degree, index in degree)
    per_degree: dict[int, list[str]] = {}
    action_lines: list[tuple[int, int, str, str]] = []  # (line, gi, source, targets)
    gen_index: dict[str, int] = {}  # action token -> generator index over alg

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = (raw[:raw.index("#")] if "#" in raw else raw).strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "action":  # most lines of a large file, so tested first
            if alg is None:
                raise ModuleFileError("action line before module header", ln)
            m = _ACTION_RE.match(line)
            if m is None:
                raise ModuleFileError("expected: action <gen> <label> = <label> [+ ...]", ln)
            token, src, targets = m.groups()
            gi = gen_index.get(token)
            if gi is None:
                gi = gen_index[token] = _find_generator(alg, token, ln)
            action_lines.append((ln, gi, src, targets))
        elif head == "generator":
            if alg is None:
                raise ModuleFileError("generator line before module header", ln)
            parts = line.split()
            if len(parts) != 4 or parts[2] != "degree":
                raise ModuleFileError("expected: generator <label> degree <d>", ln)
            label = parts[1]
            if "+" in label:
                raise ModuleFileError(f"label {label!r} contains '+'", ln,
                                      column=_token_column(raw, 1))
            if label in where:
                raise ModuleFileError(f"duplicate basis label {label}", ln)
            try:
                d = int(parts[3])
            except ValueError:
                raise ModuleFileError(f"bad degree {parts[3]!r}", ln,
                                      column=_token_column(raw, 3))
            labels = per_degree.setdefault(d, [])
            where[label] = (d, len(labels))
            labels.append(label)
        elif head == "module":
            if alg is not None:
                raise ModuleFileError("second module header", ln)
            parts = line.split()
            if len(parts) != 4 or parts[2] != "over":
                raise ModuleFileError("expected: module <name> over <algebra>", ln)
            name = parts[1]
            try:
                alg = parse_algebra(parts[3])
            except ModuleFileError as exc:
                raise ModuleFileError(str(exc), ln) from exc
        else:
            raise ModuleFileError(f"unrecognized directive {head!r}", ln,
                                  column=raw.find(head))
    if alg is None:
        raise ModuleFileError("missing module header")

    # each action line sets one column, always nonzero, so a column already
    # set is a repeated line and a bit already set is a repeated target
    gdegs = alg.gen_degrees
    cols: dict[int, dict[int, list[int]]] = {}  # gi -> degree -> packed columns
    for ln, gi, src, targets in action_lines:
        w = where.get(src)
        if w is None:
            raise ModuleFileError(f"unknown basis label {src}", ln)
        d, si = w
        e = d + gdegs[gi]
        per = cols.get(gi)
        if per is None:
            per = cols[gi] = {}
        col = per.get(d)
        if col is None:
            col = per[d] = [0] * len(per_degree[d])
        if col[si]:
            raise ModuleFileError(f"duplicate action line for {src}", ln)
        vec = 0
        for t in targets.split("+"):
            t = t.strip()
            w = where.get(t)
            if w is None:
                raise ModuleFileError(f"unknown basis label {t}", ln)
            if w[0] != e:
                raise ModuleFileError(f"target {t} has degree {w[0]}, expected {e}", ln)
            bit = 1 << w[1]
            if vec & bit:
                raise ModuleFileError(f"target {t} repeated", ln)
            vec |= bit
        col[si] = vec

    actions = {gi: {d: F2Matrix(len(per_degree[d + gdegs[gi]]), len(col), tuple(col))
                    for d, col in per.items()}
               for gi, per in cols.items()}
    return GradedModule(alg, per_degree, actions, meta={"name": name})


def action_lines(m: GradedModule, head: str = "action {} ", sep: str = " = ") -> list[str]:
    """One line per nonzero generator action on a basis element, in file
    order: head (formatted with the generator's name), the source label,
    sep, and the target labels joined by ' + '."""
    alg = m.algebra
    out = []
    for gi, gname in enumerate(alg.gen_names):
        per_degree = m.actions.get(gi)
        if not per_degree:
            continue
        lead = head.format(gname)
        g = alg.gen_degrees[gi]
        for d in sorted(per_degree):
            sources, targets = m.labels[d], m.labels[d + g]
            for j, col in enumerate(per_degree[d].columns):
                if col:
                    hit = []
                    while col:
                        low = col & -col
                        hit.append(targets[low.bit_length() - 1])
                        col ^= low
                    out.append(f"{lead}{sources[j]}{sep}{' + '.join(hit)}")
    return out


def serialize_module(m: GradedModule, name: str | None = None) -> str:
    """Deterministic module file for a module over an A(n)/E(n) preset.

    The name (by default the module's own) is written with its whitespace
    dropped.  Raises ModuleFileError for a name or label the file grammar
    cannot hold: a name that is empty or only whitespace, or holds '#'; a
    label that is empty, or has whitespace, '+' or '#' in it.
    """
    alg = m.algebra
    given = m.meta.get("name", "module") if name is None else name
    clean = re.sub(r"\s+", "", given)
    if not clean or "#" in clean:
        raise ModuleFileError(f"module name {given!r} cannot be written to a module file")
    lines = [f"module {clean} over {algebra_token(alg)}"]
    for d in m.degrees():
        labels = m.labels[d]
        if "" in labels or _BAD_LABEL_RE.search("".join(labels)):
            bad = next(label for label in labels if not label or _BAD_LABEL_RE.search(label))
            raise ModuleFileError(f"label {bad!r} cannot be written to a module file")
        tail = f" degree {d}"
        lines += [f"generator {label}{tail}" for label in labels]
    lines += action_lines(m)
    return "\n".join(lines) + "\n"
