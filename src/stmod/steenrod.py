"""Milnor-basis arithmetic in finite subalgebras of the mod-2 Steenrod algebra.

Elements live in an ambient algebra ``A(n)`` whose basis consists of the
symbols ``Sq(r1,...,rl)`` dual to the monomials ``xi_1^r1 ... xi_l^rl`` in
the truncated polynomial dual; the profile constraint is ``r_i < 2^(n+2-i)``
with ``r_i = 0`` for ``i > n+1``.  On top of the raw arithmetic (product,
coproduct, antipode) this module builds finite subalgebras by closing a
generator set multiplicatively, recording how each basis element is spelled
as a sum of generator words, and keeps one echelon span per degree.  Every
product of Milnor basis elements goes through one cached kernel,
``_term_product``, which prunes Milnor's matrices at their first carry.
The closure's right-multiplication columns term * g come from it.  By
associativity those columns give every left product g_k.b_j, and run
along x's words they give every right product b_j.x, with no further
Milnor product.  Modules are specified by generator actions alone: every
basis element acts through its left decomposition b = sum_k g_k.c_k over
the generators, read off the left products, while the word expressions
are what the Wall relations are written in.  The presets A(0), ..., A(3)
and E(0), ..., E(3) skip the closure: the state it reaches is pinned in
tables/*.json and assembled by the same code that ends every closure
(``_assemble``), and the Wall relations of A(0), ..., A(3) are pinned as
words (``wall_relations``).  The tests rebuild both from scratch and
compare.
"""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import product
from operator import mul

from .f2linalg import F2Span, apply_cols, vec_support
from .value import Value

#: Largest n for which the A(n) presets are enabled.  The instances here are
#: exponentially sized (dim A(n) = 2^((n+1)(n+2)/2)); raise this knob
#: explicitly if you really want A(4) and beyond.
MAX_AMBIENT = 3


class AmbientMismatchError(ValueError):
    """Raised when elements of different ambient algebras are combined."""


class OutOfAmbientError(ValueError):
    """Raised when an element does not fit the requested ambient profile."""


class NotFrobeniusError(ValueError):
    """Raised when an algebra has no one-dimensional top degree."""


# ---------------------------------------------------------------------------
# Milnor basis bookkeeping


def milnor_degree(r: tuple[int, ...]) -> int:
    return sum(ri * (2 ** (i + 1) - 1) for i, ri in enumerate(r))


def fits_profile(r: tuple[int, ...], n: int) -> bool:
    if len(r) > n + 1:
        return False
    return all(ri < 2 ** (n + 1 - i) for i, ri in enumerate(r))


def _normalize(r: tuple[int, ...]) -> tuple[int, ...]:
    lst = list(r)
    while lst and lst[-1] == 0:
        lst.pop()
    if any(x < 0 for x in lst):
        raise ValueError("Milnor exponents must be nonnegative")
    return tuple(lst)


def _term_str(t: tuple[int, ...]) -> str:
    """A Milnor basis element as elements print it: 1 or Sq(r1,...,rl)."""
    return "Sq(" + ",".join(str(x) for x in t) + ")" if t else "1"


@lru_cache(maxsize=None)
def milnor_basis(n: int) -> tuple[tuple[int, ...], ...]:
    """All Milnor basis exponent tuples of A(n), sorted by (degree, tuple).

    ``product`` lists the profile's padded tuples in tuple order, the sort
    by degree is stable, and dropping trailing zeros keeps the order.
    """
    if n < 0:
        raise ValueError("ambient index must be nonnegative")
    weights = [2 ** (i + 1) - 1 for i in range(n + 1)]
    padded = product(*(range(2 ** (n + 1 - i)) for i in range(n + 1)))
    out = []
    for r in sorted(padded, key=lambda r: sum(map(mul, r, weights))):
        while r and not r[-1]:
            r = r[:-1]
        out.append(r)
    return tuple(out)


@lru_cache(maxsize=None)
def _graded_basis(n: int) -> tuple[dict[int, list], dict[tuple[int, ...], tuple[int, int]]]:
    """A(n)'s Milnor basis by degree, {degree: terms in basis order}, and
    each term's place in it, {term: (degree, 1 << index in its degree)}:
    an element of one degree packs into a vector over that degree's terms."""
    terms: dict[int, list[tuple[int, ...]]] = {}
    for t in milnor_basis(n):
        terms.setdefault(milnor_degree(t), []).append(t)
    return terms, {t: (d, 1 << r) for d, ts in terms.items() for r, t in enumerate(ts)}


def _in_basis(terms, n: int) -> bool:
    """Whether every term is a Milnor basis element of A(n), by lookup in
    the cached index when 0 <= n <= MAX_AMBIENT.  The basis is exactly the
    normalised tuples that fit the profile; False (beyond MAX_AMBIENT, or
    on a miss) leaves the caller to check term by term."""
    return not terms or (0 <= n <= MAX_AMBIENT and _graded_basis(n)[1].keys() >= terms)


@lru_cache(maxsize=None)
def _term_product(r: tuple[int, ...], s: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Product of two Milnor basis elements, as a set of basis terms (mod 2).

    Enumerates the allowable matrices X = (x_ij) with row sums
    sum_j x_ij 2^j = r_i and column sums sum_i x_ij = s_j; each matrix
    contributes Sq(t_1, t_2, ...) with t_k the k-th antidiagonal sum,
    weighted by the product of the antidiagonal multinomials mod 2.  A
    multinomial is odd iff its parts have pairwise disjoint binary digits,
    so ``mask[k]`` ORs the entries on antidiagonal k and a branch is cut at
    its first carry: inner entries as they are placed, each row residue
    x_i0 when its row closes, the column residues x_0j at the end, where
    mask[k] has become t_k.  It is the only product kernel: the
    products of elements, the antipode and the closure's columns call it.
    """
    m, n = len(r), len(s)
    if m == 0:
        return frozenset({s})
    if n == 0:
        return frozenset({r})
    out: set[tuple[int, ...]] = set()
    mask = [0] * (m + n + 1)
    col_left = [0, *s]  # col_left[j] = s_j minus the inner entries of column j

    def place(i, j, rem):
        if j > n:
            if rem & mask[i]:
                return
            mask[i] |= rem
            if i < m:
                place(i + 1, 1, r[i])
            elif not any(col_left[k] & mask[k] for k in range(1, n + 1)):
                t = _normalize(tuple(mask[k] | col_left[k] if k <= n else mask[k]
                                     for k in range(1, m + n + 1)))
                if t in out:
                    out.remove(t)
                else:
                    out.add(t)
            mask[i] ^= rem
            return
        d = i + j
        seen = mask[d]
        left = col_left[j]
        for x in range(min(rem >> j, left) + 1):
            if not x & seen:
                mask[d] = seen | x
                col_left[j] = left - x
                place(i, j + 1, rem - (x << j))
        mask[d] = seen
        col_left[j] = left

    place(1, 1, r[0])
    return frozenset(out)


def _term_coproduct(r: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All splittings Sq(a) (x) Sq(b) with a + b = r componentwise."""
    pairs = [((), ())]
    for ri in r:
        pairs = [(a + (x,), b + (ri - x,)) for a, b in pairs for x in range(ri + 1)]
    return [(_normalize(a), _normalize(b)) for a, b in pairs]


# ---------------------------------------------------------------------------
# Elements


class SteenrodElt(Value, frozen=True):
    """An F_2-linear combination of Milnor basis elements of a fixed A(n)."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: int, terms: frozenset[tuple[int, ...]]):
        if not _in_basis(terms, ambient):
            for t in terms:
                if t != _normalize(t):
                    raise ValueError(f"non-normalized exponent tuple {t}")
                if not fits_profile(t, ambient):
                    raise OutOfAmbientError(f"{_term_str(t)} does not lie in A({ambient})")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", terms)

    # written out: Value's generic versions are slower in the inner loops
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ambient, self.terms) == (other.ambient, other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient, self.terms))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len({milnor_degree(t) for t in self.terms}) <= 1

    def degree(self) -> int:
        degs = {milnor_degree(t) for t in self.terms}
        if len(degs) != 1:
            raise ValueError("degree of a zero or inhomogeneous element")
        return degs.pop()

    def sorted_terms(self) -> list[tuple[int, ...]]:
        return sorted(self.terms, key=lambda t: (milnor_degree(t), t))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "SteenrodElt"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"A({self.ambient}) element combined with A({other.ambient}) element")

    def __add__(self, other: "SteenrodElt") -> "SteenrodElt":
        self._check(other)
        return SteenrodElt(self.ambient, self.terms ^ other.terms)

    def __mul__(self, other: "SteenrodElt") -> "SteenrodElt":
        self._check(other)
        acc: set[tuple[int, ...]] = set()
        for a in self.terms:
            for b in other.terms:
                acc ^= _term_product(a, b)
        if not _in_basis(acc, self.ambient):
            for t in acc:
                # A(n) is closed under the product; a profile escape would
                # mean the ambient tags were wrong in the first place
                if not fits_profile(t, self.ambient):
                    raise OutOfAmbientError(
                        f"product escaped A({self.ambient}) at {_term_str(t)}")
        return SteenrodElt(self.ambient, frozenset(acc))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_term_str(t) for t in self.sorted_terms())

    __repr__ = __str__


def zero(ambient: int) -> SteenrodElt:
    return SteenrodElt(ambient, frozenset())


def unit(ambient: int) -> SteenrodElt:
    return SteenrodElt(ambient, frozenset({()}))


def Sq(*r: int, ambient: int) -> SteenrodElt:
    """The Milnor basis element Sq(r1,...,rl); Sq(k) is the classical Sq^k."""
    return SteenrodElt(ambient, frozenset({_normalize(tuple(r))}))


def sq(k: int, ambient: int) -> SteenrodElt:
    return unit(ambient) if k == 0 else Sq(k, ambient=ambient)


def milnor_primitive(s: int, ambient: int) -> SteenrodElt:
    """The s-th Milnor primitive Q_s, dual to xi_{s+1}.

    Q_0 = Sq(1) and Q_s = Sq^{2^s} Q_{s-1} + Q_{s-1} Sq^{2^s}; in the Milnor
    basis this is the length-(s+1) tuple (0,...,0,1).  Q_s squares to zero.
    """
    if s < 0:
        raise ValueError("primitive index must be nonnegative")
    if s > ambient:
        raise OutOfAmbientError(f"Q_{s} does not lie in A({ambient})")
    return SteenrodElt(ambient, frozenset({(0,) * s + (1,)}))


def coproduct(e: SteenrodElt) -> list[tuple[SteenrodElt, SteenrodElt]]:
    """The full coproduct as a list of tensor pairs (mod-2 collapsed)."""
    acc: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for t in e.terms:
        for pair in _term_coproduct(t):
            acc ^= {pair}
    n = e.ambient
    pairs = sorted(acc, key=lambda p: (milnor_degree(p[0]), p[0], p[1]))
    return [(SteenrodElt(n, frozenset({a})), SteenrodElt(n, frozenset({b})))
            for a, b in pairs]


@lru_cache(maxsize=None)
def _term_antipode(t: tuple[int, ...], ambient: int) -> frozenset[tuple[int, ...]]:
    if not t:
        return frozenset({()})
    acc: set[tuple[int, ...]] = set()
    acc ^= {t}
    for a, b in _term_coproduct(t):
        if not a or not b:
            continue  # proper part only
        chi_a = _term_antipode(a, ambient)
        for ca in chi_a:
            acc ^= _term_product(ca, b)
    return frozenset(acc)


def antipode(e: SteenrodElt) -> SteenrodElt:
    """The antipode, via the recursion chi(x) = x + sum chi(x') x''."""
    acc: set[tuple[int, ...]] = set()
    for t in e.terms:
        acc ^= _term_antipode(t, e.ambient)
    return SteenrodElt(e.ambient, frozenset(acc))


# ---------------------------------------------------------------------------
# Subalgebras


Word = tuple[int, ...]  # indices into the generator list


class SubHopfAlgebra:
    """A finite subalgebra of an ambient A(n), with generator-word data.

    ``basis`` is a linearly independent, multiplicatively closed spanning
    set containing the unit; ``expressions[i]`` is a set of generator words
    (tuples of generator indices, the empty word meaning 1) whose sum
    multiplies out to ``basis[i]``.  The degree data (``gen_degrees``,
    ``basis_degrees``, the per-degree index tuples, ``degrees``,
    ``top_degree`` and ``unit_index``) is fixed here, once, so that no
    lookup rescans Milnor tuples; a caller that already knows the basis
    degrees passes them as ``basis_degrees``.

    ``_assemble``, which ends ``subalgebra_closure`` and builds the pinned
    presets, adds one ``F2Span`` per degree over the Milnor terms of that
    degree, each combo packed over the degree's basis as in ``left`` (a
    hand-built algebra has none, and contains only zero), and for ``left``
    and ``right_products`` the right columns of the search, each accepted
    word's (parent word, last letter, degree) and the expressions as word
    ids.
    """

    def __init__(self, ambient: int, name: str,
                 generators: tuple[SteenrodElt, ...], gen_names: tuple[str, ...],
                 basis: tuple[SteenrodElt, ...],
                 expressions: tuple[frozenset[Word], ...],
                 kind: str = "custom", kind_param: int = -1,
                 basis_degrees: tuple[int, ...] | None = None):
        self.ambient = ambient
        self.name = name
        self.generators = tuple(generators)
        self.gen_names = tuple(gen_names)
        self.gen_degrees = tuple(g.degree() for g in self.generators)
        self.basis = tuple(basis)
        self.expressions = tuple(expressions)
        if basis_degrees is None:
            basis_degrees = (b.degree() for b in self.basis)
        self.basis_degrees = tuple(basis_degrees)
        by_degree: dict[int, list[int]] = {}
        for i, d in enumerate(self.basis_degrees):
            by_degree.setdefault(d, []).append(i)
        self._by_degree = {d: tuple(ids) for d, ids in by_degree.items()}
        position = [0] * len(self.basis_degrees)
        for ids in by_degree.values():
            for r, i in enumerate(ids):
                position[i] = r
        self.degree_position = tuple(position)  # i's place in its degree
        self.degrees = tuple(sorted(by_degree))
        self.top_degree = max(self.basis_degrees, default=0)
        self.unit_index = next((i for i, b in enumerate(self.basis)
                                if b.terms == frozenset({()})), None)
        self.kind = kind  # "A", "E" or "custom"; presets tag themselves
        self.kind_param = kind_param
        self._spans: defaultdict[int, F2Span] = defaultdict(F2Span)
        self._left_table: dict[tuple[int, int], int] = {}
        self._left_words: dict[int, list[int]] = {}  # k -> _left_values(k)
        self._left_decomp: dict[int, tuple[tuple[int, int], ...]] = {}

    # -- basic shape ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_by_degree(self, d: int) -> tuple[int, ...]:
        return self._by_degree.get(d, ())

    def basis_dim(self, d: int) -> int:
        return len(self._by_degree.get(d, ()))

    # a closure's basis is a function of the ambient and the generators, so
    # the hash leaves it out; equality still compares it for hand-built ones
    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, SubHopfAlgebra)
                                 and self.ambient == other.ambient
                                 and self.generators == other.generators
                                 and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.generators))

    def __str__(self):
        return self.name

    # -- membership and decomposition ---------------------------------------

    def _by_degree_vectors(self, e: SteenrodElt) -> dict[int, int]:
        """e's part in each degree, over that degree's Milnor terms."""
        if e.ambient != self.ambient:
            raise AmbientMismatchError("element from a different ambient algebra")
        place = _graded_basis(self.ambient)[1]
        vecs: dict[int, int] = {}
        for t in e.terms:
            d, bit = place[t]
            vecs[d] = vecs.get(d, 0) | bit
        return vecs

    def decompose(self, e: SteenrodElt) -> list[int]:
        """Coefficients of e over the subalgebra basis (indices with 1)."""
        total = 0
        for d, vec in self._by_degree_vectors(e).items():
            residual, combo = self._spans[d].reduce(vec)
            if residual:
                raise ValueError(f"{e} does not lie in {self.name}")
            total |= combo << self._by_degree[d][0]  # a closure's basis is sorted by degree
        return vec_support(total)

    def contains_element(self, e: SteenrodElt) -> bool:
        return e.ambient == self.ambient and not any(
            self._spans[d].reduce(vec)[0] for d, vec in self._by_degree_vectors(e).items())

    # -- multiplicative structure --------------------------------------------

    def mult(self, i: int, j: int) -> tuple[int, ...]:
        """basis[i] * basis[j] decomposed over the basis (sorted indices)."""
        return tuple(self.decompose(self.basis[i] * self.basis[j]))

    def words(self, e: SteenrodElt) -> frozenset[Word]:
        """Words summing to e: its decomposition's expressions, summed mod 2."""
        out: frozenset[Word] = frozenset()
        for i in self.decompose(e):
            out ^= self.expressions[i]
        return out

    def right_products(self, x: SteenrodElt) -> list[int]:
        """basis[j] * x for every j, packed as in ``left``, 0 past the top
        degree, x homogeneous or zero: basis[j]'s Milnor vector runs through
        the right columns along each word of ``words(x)``, then one
        reduction in its degree's span.  Exact as ``left`` is, since every
        prefix product lies in a span.  ValueError when x is not in the algebra.
        """
        words = self.words(x)
        out = [0] * self.dim
        if not words:
            return out
        dx, place = x.degree(), _graded_basis(self.ambient)[1]
        for j, (b, d) in enumerate(zip(self.basis, self.basis_degrees)):
            if d + dx > self.top_degree:
                continue
            start, vec = sum(place[t][1] for t in b.terms), 0
            for w in words:
                v, e = start, d
                for gi in w:
                    v = apply_cols(self._right[gi][e], v)
                    if not v:
                        break
                    e += self.gen_degrees[gi]
                vec ^= v
            residual, out[j] = self._spans[d + dx].reduce(vec)
            if residual:
                raise ValueError(f"{b} * {x} does not lie in {self.name}")
        return out

    def left(self, k: int, j: int) -> int:
        """generators[k] * basis[j], packed over its degree: bit r stands
        for ``basis_by_degree(d)[r]``.

        The sum of g_k times the values of the words in expressions[j],
        read from ``_left_values(k)``, reduced once in the degree's span.
        """
        key = (k, j)
        hit = self._left_table.get(key)
        if hit is None:
            values = self._left_words.get(k)
            if values is None:
                values = self._left_words[k] = self._left_values(k)
            vec = 0
            for w in self._expression_ids[j]:
                vec ^= values[w]
            residual, hit = self._spans[self.gen_degrees[k] + self.basis_degrees[j]].reduce(vec)
            if residual:
                raise ValueError(f"{self.gen_names[k]} * {self.basis[j]} "
                                 f"does not lie in {self.name}")
            self._left_table[key] = hit
        return hit

    def _left_values(self, k: int) -> list[int]:
        """generators[k] times the value of each accepted word (word 0 is
        the empty word), over the Milnor terms of its degree.

        g_k.value(w.g) = (g_k.value(w)).g: the parent's entry times one
        right column.  The parent comes first, the search computed the
        columns of every Milnor term in a span, and a product past the
        ambient's top degree is zero, so this is exact.
        """
        place = _graded_basis(self.ambient)[1]
        g = self.gen_degrees[k]
        values = [0]
        for t in self.generators[k].terms:
            values[0] |= place[t][1]
        for up, gi, _ in self._words[1:]:
            v = values[up]
            values.append(apply_cols(self._right[gi][g + self._words[up][2]], v) if v else 0)
        return values

    def left_decomposition(self, i: int) -> tuple[tuple[int, int], ...]:
        """basis[i] = sum_k generators[k] * c_k for a basis element of
        positive degree d, as pairs (k, c_k), c_k packed over degree
        d - deg(generators[k]) as in ``left``.

        The generators generate, so the products generators[k] * basis[j]
        of degree d span it; one ``F2Span`` over them decomposes every
        basis element of degree d at once.
        """
        hit = self._left_decomp.get(i)
        if hit is None:
            d = self.basis_degrees[i]
            pairs = [(k, j) for k, g in enumerate(self.gen_degrees)
                     for j in self.basis_by_degree(d - g)]
            span = F2Span()
            for p, (k, j) in enumerate(pairs):
                span.add(self.left(k, j), 1 << p)
            for r, b in enumerate(self.basis_by_degree(d)):
                residual, combo = span.reduce(1 << r)
                if residual:
                    raise ValueError(f"{self.basis[b]} is not a sum of "
                                     f"generator multiples in {self.name}")
                cs: dict[int, int] = {}
                for p in vec_support(combo):
                    k, j = pairs[p]
                    cs[k] = cs.get(k, 0) | 1 << self.degree_position[j]
                self._left_decomp[b] = tuple(sorted(cs.items()))
            hit = self._left_decomp[i]
        return hit

    # -- Hopf-theoretic flags --------------------------------------------------
    # Decided on the generators alone: every basis element is a sum of
    # generator words, the coproduct is multiplicative and the antipode
    # reverses products (Milnor 1958), so the span is closed under either
    # one as soon as its generators are; and a subalgebra, closed under
    # products, holds every word in generators that it holds.

    def is_subalgebra_of(self, other: "SubHopfAlgebra") -> bool:
        if self.ambient != other.ambient:
            return False
        return all(other.contains_element(g) for g in self.generators)

    @cached_property
    def is_commutative(self) -> bool:
        return all((g * h).terms == (h * g).terms
                   for g in self.generators for h in self.generators)

    @cached_property
    def is_sub_hopf(self) -> bool:
        """True when the span is closed under the coproduct."""
        for g in self.generators:
            left: dict[tuple[int, ...], frozenset] = {}
            right: dict[tuple[int, ...], frozenset] = {}
            for t in g.terms:
                for a, c in _term_coproduct(t):
                    left[a] = left.get(a, frozenset()) ^ {c}
                    right[c] = right.get(c, frozenset()) ^ {a}
            if not all(self.contains_element(SteenrodElt(self.ambient, ts))
                       for ts in (*left.values(), *right.values())):
                return False
        return True

    @cached_property
    def antipode_closed(self) -> bool:
        return all(self.contains_element(antipode(g)) for g in self.generators)

    def integral(self) -> SteenrodElt:
        """The top-degree basis element; requires a one-dimensional top."""
        top = self.basis_by_degree(self.top_degree)
        if len(top) != 1:
            raise NotFrobeniusError(
                f"{self.name} has a {len(top)}-dimensional top degree")
        return self.basis[top[0]]

    def word_string(self, word: Word) -> str:
        return "1" if not word else "".join(self.gen_names[g] for g in word)


def subalgebra_closure(gens, ambient: int, *, names=None, name=None,
                       kind="custom", kind_param=-1) -> SubHopfAlgebra:
    """Close a generator set multiplicatively inside A(ambient).

    Breadth-first over right multiplication by the generators, on vectors
    over the Milnor terms of one degree, one ``F2Span`` per degree; a word's
    degree is its parent's plus its last letter's.  Right multiplication by
    ``gens[gi]`` xors one column per set bit, ``right[gi][d][bit]`` =
    term(d, bit) * gens[gi], each computed once from ``_term_product`` over
    the generator's terms and checked against the ambient profile.  Only
    the tests and the algebras with no pinned table (``_preset``) run a
    closure.  The queue holds one word per entry with its value, memoised
    by prefix: value(w + (gi,)) = value(w) * gens[gi].  A word is accepted
    only when its value is independent of its degree's span so far, so no
    recorded word evaluates to zero; it records its parent word and last
    letter, and each new echelon vector the word combination that produced
    it.  ``_assemble`` turns that state into the algebra, which keeps the
    columns and word records for ``left`` and ``right_products``, per-degree
    spans over its sorted basis.
    """
    gens = tuple(gens)
    for g in gens:
        if g.ambient != ambient:
            raise AmbientMismatchError("generator from a different ambient algebra")
        if g.is_zero() or not g.is_homogeneous() or g.degree() <= 0:
            raise ValueError("generators must be homogeneous of positive degree")
    if names is None:
        names = tuple(str(g) for g in gens)
    terms, place = _graded_basis(ambient)
    gdegs = [g.degree() for g in gens]
    right: list[dict[int, list]] = [{} for _ in gens]

    def column(gi: int, d: int, bit: int) -> int:
        col = 0
        for s in gens[gi].terms:
            for t in _term_product(terms[d][bit], s):
                hit = place.get(t)
                if hit is None:
                    raise OutOfAmbientError(f"product escaped A({ambient}) at {_term_str(t)}")
                col ^= hit[1]
        return col

    spans: dict[int, F2Span] = {}
    members: dict[int, list[int]] = {}  # degree -> its accepted words, by id
    records: list[tuple[int, int, int]] = []  # parent word, last letter, degree
    found: list[tuple[int, int, frozenset[int]]] = []  # degree, residual, word ids
    queue: list[tuple[int, int]] = []  # value, word id

    def push(vec: int, d: int, up: int, gi: int):
        span = spans.setdefault(d, F2Span())
        residual, combo = span.reduce(vec)
        if residual == 0:
            return
        # reduce() reports which accepted vectors of degree d were folded
        # in, so the residual's expression is the new word plus their words
        ids = members.setdefault(d, [])
        w = len(records)
        span.add(residual, combo ^ (1 << len(ids)))
        found.append((d, residual, frozenset({w}).union(ids[i] for i in vec_support(combo))))
        ids.append(w)
        records.append((up, gi, d))
        queue.append((vec, w))

    push(1, 0, -1, -1)
    for vec, w in queue:
        d = records[w][2]
        bits = vec_support(vec)
        for gi, g in enumerate(gdegs):
            cols = right[gi].get(d)
            if cols is None:
                cols = right[gi][d] = [None] * len(terms[d])
            child = 0
            for bit in bits:
                col = cols[bit]
                if col is None:
                    col = cols[bit] = column(gi, d, bit)
                child ^= col
            if child:
                push(child, d + g, w, gi)

    found.sort(key=lambda f: f[:2])  # canonical order: by degree, then by echelon vector
    return _assemble(gens, ambient, tuple(names), name or ("F_2(" + ", ".join(names) + ")"),
                     kind, kind_param, records, found, right)


def _assemble(gens: tuple[SteenrodElt, ...], ambient: int, names: tuple[str, ...], name: str,
              kind: str, kind_param: int, words: list[tuple[int, int, int]],
              basis: list[tuple[int, int, frozenset[int]]],
              right: list[dict[int, list]]) -> SubHopfAlgebra:
    """The algebra that closing ``gens`` inside A(ambient) reaches, from the
    closure's raw state in canonical order.

    ``words`` holds each accepted word as (parent word id, last letter,
    degree), word 0 being the empty word (-1, -1, 0); ``basis`` holds each
    basis element, sorted by degree and then by vector, as (degree, its
    vector over the Milnor terms of that degree, the ids of the words that
    sum to it); ``right[gi][d][bit]`` is the column term(d, bit) * gens[gi]
    (None where no accepted word reached the term).  ``subalgebra_closure``
    ends here, and so do the pinned presets, on the same state read from
    their tables.  The per-degree spans are rebuilt over the sorted basis.
    """
    terms = _graded_basis(ambient)[0]
    spelled: list[Word] = []
    for up, gi, _ in words:
        spelled.append(spelled[up] + (gi,) if gi >= 0 else ())
    alg = SubHopfAlgebra(ambient=ambient, name=name, generators=gens, gen_names=names,
                         basis=tuple(SteenrodElt(ambient, frozenset(
                             terms[d][r] for r in vec_support(vec))) for d, vec, _ in basis),
                         expressions=tuple(frozenset(spelled[w] for w in ids)
                                           for _, _, ids in basis),
                         kind=kind, kind_param=kind_param,
                         basis_degrees=tuple(d for d, _, _ in basis))
    for i, (d, vec, _) in enumerate(basis):
        alg._spans[d].add(vec, 1 << alg.degree_position[i])
    alg._right = right
    alg._words = words
    alg._expression_ids = tuple(ids for _, _, ids in basis)
    return alg


def _word_value(gens, ambient: int, word: Word) -> SteenrodElt:
    """The product of gens[i] over the letters i of word (1 when empty)."""
    e = unit(ambient)
    for gi in word:
        e = e * gens[gi]
    return e


def A(n: int, ambient: int | None = None) -> SubHopfAlgebra:
    """The subalgebra A(n) generated by Sq^1, ..., Sq^{2^n}.

    The basis is the closure's echelon basis, which spans A(n); it is not
    the Milnor basis of A(n), since some basis elements are sums of several
    Milnor basis elements (10 of A(2)'s 64, 537 of A(3)'s 1,024).  Passing
    a larger ambient embeds A(n) in A(ambient).  Each algebra is built once:
    A(n) and A(n, n) are the same object.  A(0), ..., A(3) in their own
    ambient are read from pinned tables (``_preset``), the others closed.
    """
    return _preset("A", n, n if ambient is None else ambient)


def E(n: int, ambient: int | None = None) -> SubHopfAlgebra:
    """The exterior subalgebra E(n) on the Milnor primitives Q_0, ..., Q_n,
    built once: E(n) and E(n, n) are the same object.  E(0), ..., E(3) in
    their own ambient are read from pinned tables (``_preset``)."""
    return _preset("E", n, n if ambient is None else ambient)


#: A(n) and E(n) inside A(n) for n <= _PINNED come from tables/, and the
#: Wall relations of A(n) for n <= _PINNED are pinned below.
_PINNED = 3
_TABLES = os.path.join(os.path.dirname(__file__), "tables")


def _check_ambient(kind: str, n: int, ambient: int) -> None:
    if not 0 <= n <= ambient:
        raise ValueError("need 0 <= n <= ambient")
    if ambient > MAX_AMBIENT:
        what = (f"A({ambient}) is disabled by default (dim 2^((n+1)(n+2)/2))" if kind == "A"
                else f"E({n}) inside A({ambient}) is disabled by default")
        raise ValueError(f"{what}; raise stmod.steenrod.MAX_AMBIENT to construct it anyway")


def _preset_generators(kind: str, n: int, ambient: int) -> tuple[tuple[SteenrodElt, ...],
                                                                 tuple[str, ...]]:
    """The generators of A(n) (Sq^1, ..., Sq^{2^n}) or E(n) (Q_0, ..., Q_n)
    inside A(ambient), and their names."""
    if kind == "A":
        return (tuple(sq(2 ** i, ambient) for i in range(n + 1)),
                tuple(f"Sq^{2**i}" for i in range(n + 1)))
    return (tuple(milnor_primitive(s, ambient) for s in range(n + 1)),
            tuple(f"P(1,{s})" for s in range(n + 1)))


@lru_cache(maxsize=None)
def _preset(kind: str, n: int, ambient: int) -> SubHopfAlgebra:
    """A(n) (kind "A") or E(n) (kind "E") inside A(ambient).

    For ambient == n <= 3 the closure of the generators is not run: its
    raw state, in the canonical order ``_assemble`` takes, is read from
    tables/<kind><n>.json.  The tests rebuild each table from a fresh
    ``subalgebra_closure`` and compare it byte for byte
    (tests/closure_tables.py, which also rewrites them).  A missing table is
    an error.  A smaller algebra in a larger ambient is closed here.
    """
    _check_ambient(kind, n, ambient)
    gens, names = _preset_generators(kind, n, ambient)
    label = f"{kind}({n})" if ambient == n else f"{kind}({n})<A({ambient})"
    if n == ambient <= _PINNED:
        with open(os.path.join(_TABLES, f"{kind}{n}.json"), "rb") as fh:
            table = json.load(fh)
        # each decoded part is dropped once converted; the columns are kept
        return _assemble(gens, ambient, names, label, kind, n,
                         [tuple(w) for w in table.pop("words")],
                         [(d, vec, frozenset(ids)) for d, vec, ids in table.pop("basis")],
                         [{int(d): cols for d, cols in by_degree.items()}
                          for by_degree in table.pop("right")])
    return subalgebra_closure(gens, ambient, names=names, name=label,
                              kind=kind, kind_param=n)


# ---------------------------------------------------------------------------
# Wall relations


class WallRelation(Value, frozen=True):
    """A defining relation of A(n) as a sum of generator words.

    Words are tuples of exponents i, standing for Sq^{2^i}.  The sum of the
    word values is zero in A(n); evaluated on candidate action matrices it
    must be the zero operator.
    """

    __slots__ = ("n", "words", "label")

    def __init__(self, n: int, words: frozenset[Word], label: str):
        self._assign(n, words, label)

    def element(self) -> SteenrodElt:
        gens = tuple(sq(2 ** i, self.n) for i in range(self.n + 1))
        acc = zero(self.n)
        for w in self.words:
            acc = acc + _word_value(gens, self.n, w)
        return acc

    def __str__(self):
        return self.label


def _word_label(word: Word) -> str:
    return "".join(f"Sq^{2**i}" for i in word)


def _relation_label(words) -> str:
    ws = sorted(words, key=lambda w: (len(w), w))
    return " + ".join(_word_label(w) for w in ws)


#: The Wall relations of A(3), each as its words in the letters i of
#: Sq^{2^i}: Sq^1Sq^1; the relation led by Sq^{2^t}Sq^{2^t} for t = 1, 2, 3;
#: the commutator-style relation of Sq^{2^r} and Sq^{2^s} for (r, s) = (2, 0),
#: (3, 0), (3, 1).  Those of A(n) are the ones in the letters 0..n.
_WALL_WORDS: tuple[tuple[Word, ...], ...] = (
    ((0, 0),),
    ((1, 1), (0, 1, 0)),
    ((2, 2), (1, 1, 2), (1, 2, 1)),
    ((3, 3), (2, 2, 3), (2, 3, 2), (2, 2, 2, 2)),
    ((0, 2), (2, 0), (1, 0, 1)),
    ((0, 3), (3, 0), (0, 2, 2), (2, 0, 2)),
    ((1, 3), (3, 1), (2, 1, 2), (0, 2, 2, 0)),
)


@lru_cache(maxsize=None)
def wall_relations(n: int) -> tuple[WallRelation, ...]:
    """The minimal relation set among the generators Sq^{2^i} of A(n).

    One relation Sq^1 Sq^1; for each 1 <= t <= n a relation with leading
    words Sq^{2^t}Sq^{2^t} + Sq^{2^{t-1}}Sq^{2^t}Sq^{2^{t-1}} +
    Sq^{2^{t-1}}Sq^{2^{t-1}}Sq^{2^t}, closed up by words in A(t-1); and for
    each 0 <= s <= r-2 <= n-2 a commutator-style relation
    Sq^{2^r}Sq^{2^s} + Sq^{2^s}Sq^{2^r} plus words in A(r-1).  Leading words
    already killed by the Sq^1 Sq^1 relation are omitted, as in the
    classical displays.  The closing words are A(t-1)'s (or A(r-1)'s) words
    for the leading words' value, pinned here for n <= 3, so no algebra is
    built; the tests rebuild them that way and compare.  Past
    ``MAX_AMBIENT`` this raises the error A(n) itself raises.
    """
    _check_ambient("A", n, n)
    if n > _PINNED:
        raise ValueError(f"the Wall relations are pinned for A(0)..A({_PINNED}) only")
    return tuple(WallRelation(n, frozenset(ws), _relation_label(ws))
                 for ws in _WALL_WORDS if max(map(max, ws)) <= n)


# ---------------------------------------------------------------------------
# Element grammar:  Sq^k | Sq(r1,...,rl) | P(1,s) | 1, products by
# juxtaposition (whitespace or '*'), sums with '+'.

_TOKEN = re.compile(r"Sq\^(\d+)|Sq\(([\d,\s]*)\)|P\(\s*1\s*,\s*(\d+)\s*\)|1|\S")
_MILNOR_ENTRY = re.compile(r"\s*\d+\s*")


def parse_element(text: str, ambient: int) -> SteenrodElt:
    """Parse the element grammar into a SteenrodElt of A(ambient)."""
    total = zero(ambient)
    chunks = text.split("+")
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk and len(chunks) > 1:
            raise ValueError(f"empty summand next to '+' in {text!r}")
        if not chunk or chunk == "0":
            continue
        factor = unit(ambient)
        seen = False
        for m in _TOKEN.finditer(chunk):
            tok = m.group(0)
            if tok == "*":
                continue
            seen = True
            if m.group(1) is not None:
                factor = factor * sq(int(m.group(1)), ambient)
            elif m.group(2) is not None:
                parts = m.group(2).split(",") if m.group(2).strip() else []
                if not all(_MILNOR_ENTRY.fullmatch(p) for p in parts):
                    raise ValueError(f"each entry of {tok!r} must be one integer")
                factor = factor * Sq(*[int(p) for p in parts], ambient=ambient)
            elif m.group(3) is not None:
                factor = factor * milnor_primitive(int(m.group(3)), ambient)
            elif tok == "1":
                pass
            else:
                raise ValueError(f"cannot parse element syntax at "
                                 f"{chunk[m.start():]!r} in {text!r}")
        if not seen:
            raise ValueError(f"cannot parse element chunk {chunk!r}")
        total = total + factor
    return total
