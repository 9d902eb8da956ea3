"""A small, self-contained toolkit for the module files the benchmark feeds
to ``stmod``.

None of this imports ``stmod``: the benchmark generates its inputs and checks
the program's outputs with its own code, so a defect in the program cannot
hide in the check.  A module is kept as per-degree label lists plus, for each
algebra generator token (``Sq^2``, ``P(1,1)``, ...), per-degree action
columns packed as bitmasks over the labels of the target degree.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field


class FormatError(ValueError):
    """Text that is not in the module-file grammar."""


@dataclass
class Mod:
    name: str
    algebra: str                                   # e.g. "A(1)", "E(3)"
    labels: dict[int, list[str]]                   # degree -> labels
    act: dict[str, dict[int, list[int]]] = field(default_factory=dict)
    gen_degree: dict[str, int] = field(default_factory=dict)

    def dims(self) -> dict[int, int]:
        return {d: len(ls) for d, ls in sorted(self.labels.items()) if ls}

    @property
    def total_dim(self) -> int:
        return sum(len(ls) for ls in self.labels.values())

    def apply(self, gen: str, d: int, vec: int) -> int:
        """Image of a packed degree-d vector under one generator."""
        cols = self.act.get(gen, {}).get(d)
        out = 0
        if cols:
            j = 0
            while vec:
                if vec & 1:
                    out ^= cols[j]
                vec >>= 1
                j += 1
        return out

    def structure(self) -> tuple:
        """Basis-labelled action as a comparable value, independent of the
        order in which a file lists its lines."""
        gens = sorted((lab, d) for d, ls in self.labels.items() for lab in ls)
        acts = set()
        for gen, per in self.act.items():
            g = self.gen_degree[gen]
            for d, cols in per.items():
                for j, col in enumerate(cols):
                    if col:
                        tgt = tuple(sorted(self.labels[d + g][i] for i in _bits(col)))
                        acts.add((gen, self.labels[d][j], tgt))
        return tuple(gens), tuple(sorted(acts))


def _bits(v: int) -> list[int]:
    out = []
    i = 0
    while v:
        if v & 1:
            out.append(i)
        v >>= 1
        i += 1
    return out


_GEN_RE = re.compile(r"^(?:Sq\^(\d+)|P\(1,(\d+)\))$")


def generator_degree(token: str) -> int:
    m = _GEN_RE.match(token)
    if not m:
        raise FormatError(f"unknown algebra generator {token!r}")
    if m.group(1) is not None:
        return int(m.group(1))
    return 2 ** (int(m.group(2)) + 1) - 1


def parse(text: str) -> Mod:
    name, algebra = None, None
    labels: dict[int, list[str]] = {}
    where: dict[str, tuple[int, int]] = {}
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "module" and len(parts) == 4 and parts[2] == "over":
            name, algebra = parts[1], parts[3]
        elif parts[0] == "generator" and len(parts) == 4 and parts[2] == "degree":
            d = int(parts[3])
            if parts[1] in where:
                raise FormatError(f"line {ln}: duplicate label {parts[1]}")
            labels.setdefault(d, []).append(parts[1])
            where[parts[1]] = (d, len(labels[d]) - 1)
        elif parts[0] == "action":
            m = re.match(r"action\s+(\S+)\s+(\S+)\s*=\s*(.+)$", line)
            if not m:
                raise FormatError(f"line {ln}: bad action line")
            lines.append((ln, m.group(1), m.group(2),
                          [t.strip() for t in m.group(3).split("+")]))
        else:
            raise FormatError(f"line {ln}: unrecognised line {line!r}")
    if name is None:
        raise FormatError("missing module header")
    mod = Mod(name, algebra, labels)
    for ln, gen, src, targets in lines:
        g = generator_degree(gen)
        mod.gen_degree[gen] = g
        if src not in where:
            raise FormatError(f"line {ln}: unknown label {src}")
        d, j = where[src]
        vec = 0
        for t in targets:
            if t not in where or where[t][0] != d + g:
                raise FormatError(f"line {ln}: bad target {t}")
            vec ^= 1 << where[t][1]
        cols = mod.act.setdefault(gen, {}).setdefault(d, [0] * len(labels[d]))
        cols[j] = vec
    return mod


def serialize(m: Mod) -> str:
    out = [f"module {m.name} over {m.algebra}"]
    for d in sorted(m.labels):
        out.extend(f"generator {lab} degree {d}" for lab in m.labels[d])
    for gen in sorted(m.act, key=lambda x: (m.gen_degree[x], x)):
        g = m.gen_degree[gen]
        for d in sorted(m.act[gen]):
            for j, col in enumerate(m.act[gen][d]):
                if col:
                    tgt = " + ".join(m.labels[d + g][i] for i in _bits(col))
                    out.append(f"action {gen} {m.labels[d][j]} = {tgt}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# GF(2) helpers


def _invert(cols: list[int], n: int) -> list[int]:
    """Inverse of an invertible n x n matrix given by packed columns."""
    rows = []
    for i in range(n):
        r = 0
        for j, c in enumerate(cols):
            if (c >> i) & 1:
                r |= 1 << j
        rows.append(r | (1 << (n + i)))
    for j in range(n):
        piv = next(i for i in range(j, n) if (rows[i] >> j) & 1)
        rows[j], rows[piv] = rows[piv], rows[j]
        for i in range(n):
            if i != j and (rows[i] >> j) & 1:
                rows[i] ^= rows[j]
    inv_rows = [r >> n for r in rows]
    return [sum(((inv_rows[i] >> j) & 1) << i for i in range(n)) for j in range(n)]


def _mat_vec(cols: list[int], vec: int) -> int:
    out = 0
    for j in _bits(vec):
        out ^= cols[j]
    return out


# ---------------------------------------------------------------------------
# Seeded presentations of one module


def transform(m: Mod, rng: random.Random, *, shift: int = 0,
              change_basis: bool = True) -> Mod:
    """The same module in another presentation: suspended by ``shift``,
    relabelled, and (with ``change_basis``) written in a new basis of each
    degree.

    The new basis is a random permutation of the old one with about half of
    the vectors also adding one earlier basis vector, so the change of basis
    is invertible and action matrices stay sparse.
    """
    basis: dict[int, list[int]] = {}  # new basis vectors as old coordinates
    for d, ls in m.labels.items():
        n = len(ls)
        perm = list(range(n))
        if change_basis:
            rng.shuffle(perm)
        vecs = []
        for k, p in enumerate(perm):
            v = 1 << p
            if change_basis and k and rng.random() < 0.5:
                v |= 1 << perm[rng.randrange(k)]
            vecs.append(v)
        basis[d] = vecs
    inverse = {d: _invert(vecs, len(vecs)) for d, vecs in basis.items()}
    counter = list(range(m.total_dim))
    rng.shuffle(counter)
    it = iter(counter)
    labels = {d + shift: [f"x{next(it)}" for _ in ls] for d, ls in sorted(m.labels.items())}
    act: dict[str, dict[int, list[int]]] = {}
    for gen, per in m.act.items():
        g = m.gen_degree[gen]
        new = {}
        for d in per:
            if d + g not in m.labels:
                continue
            cols = [_mat_vec(inverse[d + g], m.apply(gen, d, v)) for v in basis[d]]
            if any(cols):
                new[d + shift] = cols
        act[gen] = new
    return Mod(m.name, m.algebra, labels, act, dict(m.gen_degree))


def tensor_a1(m: Mod, n: Mod, name: str) -> Mod:
    """Tensor product of two A(1)-modules, by the Cartan formula.

    Sq^1(x|y) = Sq^1x|y + x|Sq^1y and Sq^2(x|y) = Sq^2x|y + Sq^1x|Sq^1y + x|Sq^2y;
    the basis is the labelled pairs ``x|y``.
    """
    pairs: dict[int, list[tuple[int, int, int, int]]] = {}
    for d1 in sorted(m.labels):
        for d2 in sorted(n.labels):
            lst = pairs.setdefault(d1 + d2, [])
            for i1 in range(len(m.labels[d1])):
                for i2 in range(len(n.labels[d2])):
                    lst.append((d1, i1, d2, i2))
    index = {key: pos for lst in pairs.values() for pos, key in enumerate(lst)}
    labels = {d: [f"{m.labels[a][i]}|{n.labels[b][j]}" for a, i, b, j in lst]
              for d, lst in pairs.items()}
    terms = {"Sq^1": [("Sq^1", None), (None, "Sq^1")],
             "Sq^2": [("Sq^2", None), ("Sq^1", "Sq^1"), (None, "Sq^2")]}
    act: dict[str, dict[int, list[int]]] = {}
    for gen, parts in terms.items():
        per = {}
        for d, lst in pairs.items():
            cols = []
            for d1, i1, d2, i2 in lst:
                col = 0
                for a, b in parts:
                    va = m.apply(a, d1, 1 << i1) if a else 1 << i1
                    vb = n.apply(b, d2, 1 << i2) if b else 1 << i2
                    da = generator_degree(a) if a else 0
                    db = generator_degree(b) if b else 0
                    for p in _bits(va):
                        for q in _bits(vb):
                            col ^= 1 << index[(d1 + da, p, d2 + db, q)]
                cols.append(col)
            if any(cols):
                per[d] = cols
        act[gen] = per
    return Mod(name, "A(1)", labels, act, {"Sq^1": 1, "Sq^2": 2})


def double(m: Mod) -> Mod:
    """Regrade a module over A(n) as one over A(n+1): degrees double,
    Sq^{2k} acts as Sq^k did and Sq^1 acts as zero."""
    n = int(m.algebra.strip("A()"))
    act, gen_degree = {}, {}
    for gen, per in m.act.items():
        token = f"Sq^{2 * m.gen_degree[gen]}"
        act[token] = {2 * d: list(cols) for d, cols in per.items()}
        gen_degree[token] = 2 * m.gen_degree[gen]
    labels = {2 * d: list(ls) for d, ls in m.labels.items()}
    return Mod(m.name, f"A({n + 1})", labels, act, gen_degree)


def _compose(m: Mod, word: list[str], d: int, vec: int) -> int:
    """Apply the word right to left (the last generator acts first)."""
    for gen in reversed(word):
        vec = m.apply(gen, d, vec)
        d += generator_degree(gen)
    return vec


# Relations of A(1) in its generators, each a sum of words that acts as zero;
# they hold in every A(n), n >= 1.
A1_RELATIONS = (
    (["Sq^1", "Sq^1"],),
    (["Sq^2", "Sq^2"], ["Sq^1", "Sq^2", "Sq^1"]),
    (["Sq^1", "Sq^2", "Sq^1", "Sq^2"], ["Sq^2", "Sq^1", "Sq^2", "Sq^1"]),
)


def a1_violations(m: Mod) -> list[str]:
    """Relations of A(1) that fail on the Sq^1, Sq^2 action of ``m``."""
    bad = []
    for words in A1_RELATIONS:
        for d, ls in m.labels.items():
            for j in range(len(ls)):
                total = 0
                for word in words:
                    total ^= _compose(m, word, d, 1 << j)
                if total:
                    bad.append(f"relation {' + '.join(''.join(w) for w in words)} "
                               f"fails on {ls[j]}")
                    break
    return bad
