"""Milnor-basis arithmetic in finite subalgebras of the mod-2 Steenrod algebra.

Elements live in an ambient algebra ``A(n)`` whose basis consists of the
symbols ``Sq(r1,...,rl)`` dual to the monomials ``xi_1^r1 ... xi_l^rl`` in
the truncated polynomial dual; the profile constraint is ``r_i < 2^(n+2-i)``
with ``r_i = 0`` for ``i > n+1``.  On top of the raw arithmetic (product,
coproduct, antipode) this module builds finite subalgebras by closing a
generator set multiplicatively, recording how each basis element is spelled
as a sum of generator words, and keeps one echelon span per degree.  By
associativity the closure's right-multiplication columns give every left
product g_k.b_j, and run along x's words they give every right product
b_j.x, with no further Milnor product.  Modules are specified by
generator actions alone: every basis element acts through its left
decomposition b = sum_k g_k.c_k over the generators, read off the left
products, while the word expressions are what the Wall relations are
written in.
"""

from __future__ import annotations

import re
from collections import defaultdict
from functools import cached_property, lru_cache

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
    """All Milnor basis exponent tuples of A(n), sorted by (degree, tuple)."""
    if n < 0:
        raise ValueError("ambient index must be nonnegative")
    ranges = [range(2 ** (n + 1 - i)) for i in range(n + 1)]
    out = []

    def rec(i, acc):
        if i == len(ranges):
            out.append(_normalize(tuple(acc)))
            return
        for v in ranges[i]:
            acc.append(v)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    uniq = sorted(set(out), key=lambda t: (milnor_degree(t), t))
    return tuple(uniq)


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
    mask[k] has become t_k.

    A single Sq(k) on either side leaves one inner column or one inner row,
    and there T determines X: the last antidiagonal sum is the last inner
    entry, and each earlier t_p fixes one more entry once the later ones are
    known.  So no two matrices share a term, nothing cancels, and
    ``_chain_product`` lists the terms as a plain set.
    """
    m, n = len(r), len(s)
    if m == 0:
        return frozenset({s})
    if n == 0:
        return frozenset({r})
    if n == 1:
        return _chain_product(r, s[0], True)
    if m == 1:
        return _chain_product(s, r[0], False)
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


def _chain_product(a: tuple[int, ...], k: int, sq_right: bool) -> frozenset[tuple[int, ...]]:
    """Sq(a)·Sq(k) when ``sq_right``, else Sq(k)·Sq(a), as a set of terms.

    Milnor's matrix has one inner column, y_p = x_p1 with 2 y_p <= a_p and
    sum y_p <= k, or one inner row, y_p = x_1p with y_p <= a_p and
    sum 2^p y_p <= k, for p = 1..n.  On antidiagonal p+1 the entry y_p meets
    one residue: o_(p+1) = a_(p+1) - 2 y_(p+1), the row residue x_(p+1)0, or
    a_(p+1) - y_(p+1), the column residue x_0(p+1).  So t_(n+1) = y_n,
    t_(p+1) = o_(p+1) + y_p and t_1 = o_1 + (what y leaves of k).  Read
    from the far end, T fixes y_n, then o_n and y_(n-1), and so on down the
    chain: distinct matrices give distinct terms, and nothing cancels.  The
    walk draws y_n, ..., y_1 in turn, each among the submasks of the
    complement of the residue it meets, since a multinomial is odd iff its
    parts have disjoint bits.
    """
    n = len(a)
    own = 1 if sq_right else 0  # y_p takes y_p << own from a_p
    out: set[tuple[int, ...]] = set()
    t = [0] * (n + 1)  # t[p] = t_(p+1)

    def down(p, meet, left):
        ap = a[p - 1]
        cost = 0 if sq_right else p  # ... and y_p << cost from k
        lim = ap >> own
        if left >> cost < lim:
            lim = left >> cost
        free = ((1 << lim.bit_length()) - 1) & ~meet
        y = free
        while True:
            if y <= lim:
                t[p] = meet | y
                o, rest = ap - (y << own), left - (y << cost)
                if p > 1:
                    down(p - 1, o, rest)
                elif not o & rest:
                    t[0] = o | rest
                    # only t_(n+1) = y_n can be 0 at the end: then t_n >= a_n
                    out.add(tuple(t) if t[n] else tuple(t[:n]))
            if not y:
                break
            y = (y - 1) & free

    down(n, 0, k)
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

    ``subalgebra_closure`` adds one ``F2Span`` per degree over the Milnor
    terms of that degree, each combo packed over the degree's basis as in
    ``left`` (a hand-built algebra has none, and contains only zero), and
    for ``left`` and ``right_products`` the right columns of its search,
    each accepted word's (parent word, last letter, degree) and the
    expressions as word ids.
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
        self._mult_table: dict = {}
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
        key = (i, j)
        hit = self._mult_table.get(key)
        if hit is None:
            hit = tuple(self.decompose(self.basis[i] * self.basis[j]))
            self._mult_table[key] = hit
        return hit

    def right_products(self, x: SteenrodElt) -> list[int]:
        """basis[j] * x for every j, packed as in ``left``, 0 past the top
        degree, x homogeneous or zero: basis[j]'s Milnor vector runs through
        the right columns along each word of x's expressions, then one
        reduction in its degree's span.  Exact as ``left`` is, since every
        prefix product lies in a span.  ValueError when x is not in the algebra.
        """
        words: frozenset[Word] = frozenset()
        for i in self.decompose(x):
            words ^= self.expressions[i]
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

    def evaluate_word(self, word: Word) -> SteenrodElt:
        return _word_value(self.generators, self.ambient, word)

    def word_string(self, word: Word) -> str:
        return "1" if not word else "".join(self.gen_names[g] for g in word)


def subalgebra_closure(gens, ambient: int, *, names=None, name=None,
                       kind="custom", kind_param=-1) -> SubHopfAlgebra:
    """Close a generator set multiplicatively inside A(ambient).

    Breadth-first over right multiplication by the generators, on vectors
    over the Milnor terms of one degree, one ``F2Span`` per degree; a word's
    degree is its parent's plus its last letter's.  Right multiplication by
    ``gens[gi]`` xors one column per set bit, ``right[gi][d][bit]`` =
    term(d, bit) * gens[gi], each computed once and checked against the
    ambient profile.  The queue holds one word per entry with its value,
    memoised by prefix: value(w + (gi,)) = value(w) * gens[gi].  A word is
    accepted only when its value is independent of its degree's span so
    far, so no recorded word evaluates to zero; it records its parent word
    and last letter, and each new echelon vector the word combination that
    produced it.  The algebra keeps the columns and word records for
    ``left`` and ``right_products``, per-degree spans over its sorted basis.
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
                if t not in place:
                    raise OutOfAmbientError(f"product escaped A({ambient}) at {_term_str(t)}")
                col ^= place[t][1]
        return col

    spans: dict[int, F2Span] = {}
    members: dict[int, list[int]] = {}  # degree -> its accepted words, by id
    words: list[Word] = []
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
        w = len(words)
        span.add(residual, combo ^ (1 << len(ids)))
        found.append((d, residual, frozenset({w}).union(ids[i] for i in vec_support(combo))))
        ids.append(w)
        words.append(words[up] + (gi,) if gi >= 0 else ())
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

    # canonical order: by degree, then by echelon vector
    order = sorted(range(len(found)), key=lambda i: found[i][:2])
    alg = SubHopfAlgebra(ambient=ambient,
                         name=name or ("F_2(" + ", ".join(names) + ")"),
                         generators=gens, gen_names=tuple(names),
                         basis=tuple(SteenrodElt(ambient, frozenset(
                             terms[found[i][0]][r] for r in vec_support(found[i][1])))
                             for i in order),
                         expressions=tuple(frozenset(words[w] for w in found[i][2])
                                           for i in order),
                         kind=kind, kind_param=kind_param,
                         basis_degrees=tuple(found[i][0] for i in order))
    for i, j in enumerate(order):
        alg._spans[found[j][0]].add(found[j][1], 1 << alg.degree_position[i])
    alg._right = right
    alg._words = records
    alg._expression_ids = tuple(found[i][2] for i in order)
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
    A(n) and A(n, n) are the same object.
    """
    return _A(n, n if ambient is None else ambient)


@lru_cache(maxsize=None)
def _A(n: int, ambient: int) -> SubHopfAlgebra:
    if not 0 <= n <= ambient:
        raise ValueError("need 0 <= n <= ambient")
    if ambient > MAX_AMBIENT:
        raise ValueError(
            f"A({ambient}) is disabled by default (dim 2^((n+1)(n+2)/2)); "
            "raise stmod.steenrod.MAX_AMBIENT to construct it anyway")
    gens = tuple(sq(2 ** i, ambient) for i in range(n + 1))
    names = tuple(f"Sq^{2**i}" for i in range(n + 1))
    label = f"A({n})" if ambient == n else f"A({n})<A({ambient})"
    return subalgebra_closure(gens, ambient, names=names, name=label,
                              kind="A", kind_param=n)


def E(n: int, ambient: int | None = None) -> SubHopfAlgebra:
    """The exterior subalgebra E(n) on the Milnor primitives Q_0, ..., Q_n,
    built once: E(n) and E(n, n) are the same object."""
    return _E(n, n if ambient is None else ambient)


@lru_cache(maxsize=None)
def _E(n: int, ambient: int) -> SubHopfAlgebra:
    if not 0 <= n <= ambient:
        raise ValueError("need 0 <= n <= ambient")
    if ambient > MAX_AMBIENT:
        raise ValueError(
            f"E({n}) inside A({ambient}) is disabled by default; "
            "raise stmod.steenrod.MAX_AMBIENT to construct it anyway")
    gens = tuple(milnor_primitive(s, ambient) for s in range(n + 1))
    names = tuple(f"P(1,{s})" for s in range(n + 1))
    label = f"E({n})" if ambient == n else f"E({n})<A({ambient})"
    return subalgebra_closure(gens, ambient, names=names, name=label,
                              kind="E", kind_param=n)


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


def _express_in_lower(e: SteenrodElt, bound: int, ambient: int) -> frozenset[Word]:
    """Express e, an element of A(bound), as words in Sq^1..Sq^{2^bound}."""
    if e.is_zero():
        return frozenset()
    alg = A(bound, ambient)
    combo = alg.decompose(e)
    expr: frozenset[Word] = frozenset()
    for i in combo:
        expr = expr ^ alg.expressions[i]
    return expr


@lru_cache(maxsize=None)
def wall_relations(n: int) -> tuple[WallRelation, ...]:
    """The minimal relation set among the generators Sq^{2^i} of A(n).

    One relation Sq^1 Sq^1; for each 1 <= t <= n a relation with leading
    words Sq^{2^t}Sq^{2^t} + Sq^{2^{t-1}}Sq^{2^t}Sq^{2^{t-1}} +
    Sq^{2^{t-1}}Sq^{2^{t-1}}Sq^{2^t}, closed up by words in A(t-1); and for
    each 0 <= s <= r-2 <= n-2 a commutator-style relation
    Sq^{2^r}Sq^{2^s} + Sq^{2^s}Sq^{2^r} plus words in A(r-1).  Leading words
    already killed by the Sq^1 Sq^1 relation are omitted, as in the
    classical displays.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gens = tuple(sq(2 ** i, n) for i in range(n + 1))
    rels = [WallRelation(n, frozenset({(0, 0)}), "Sq^1Sq^1")]
    for t in range(1, n + 1):
        lead = [(t, t), (t - 1, t, t - 1), (t - 1, t - 1, t)]
        value = zero(n)
        for w in lead:
            value = value + _word_value(gens, n, w)
        kept = [w for w in lead
                if not any(w[i] == w[i + 1] == 0 for i in range(len(w) - 1))]
        words = frozenset(kept) ^ _express_in_lower(value, t - 1, n)
        rels.append(WallRelation(n, words, _relation_label(words)))
    for r in range(2, n + 1):
        for s in range(0, r - 1):
            lead = [(r, s), (s, r)]
            value = _word_value(gens, n, (r, s)) + _word_value(gens, n, (s, r))
            words = frozenset(lead) ^ _express_in_lower(value, r - 1, n)
            rels.append(WallRelation(n, words, _relation_label(words)))
    return tuple(rels)


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
