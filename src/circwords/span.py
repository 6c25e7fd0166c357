"""Exact linear algebra over occurrence-count functionals W -> |W|_U.

Sampling the functionals on all circular words up to a length builds an
integer matrix whose rational rank is the dimension of the space they
span.  For factors of length at most l over d letters that dimension is
(d-1)d^(l-1)+1, the cyclomatic number of B(d,l-1); this module verifies
the formula, the independent spanning set {0^l} union {1V}, and the
basis of factors whose first and last letters are nonzero.

Every question is answered from one sample and one echelon.  The sample
holds one word per rotation class, the necklaces: every count |W|_U is
the same on all rotations of W, so they give the same distinct count
rows as all d^m words of each length, from about d^m/m words.  Each row
holds a word's d^l counts of length-l factors in lexicographic order,
and _sample_echelon reduces the distinct rows into one row echelon.
For |u| <= l, |W|_u is the sum of the row over the block of columns
that start with u, and |W| is the sum of the whole row; so a family's
values are block sums, a fixed linear map, and taken on the kept rows
they span the same space as on the whole sample.  Ranks and solutions
depend only on that space.  One cap bounds d^max_len and d^l before
anything is built.

Every count row obeys the flow law of B(d,l-1): it lies in the null
space of the flow relations R, the cycle space of that connected
digraph (Biggs, Algebraic Graph Theory, ch. 4-5), of dimension
d^l - rank(R).  span_dimension passes that bound to the sampler.  Once
the rank meets it and every kept row obeys the law, the kept rows span
null(R), so from then on a row adds rank exactly when it breaks the
law.  Each later row is checked against the law in O(d^l) slice sums
instead of eliminated, and only a row that breaks it goes to the
kernel, so the echelon and the rank trace are the same as if every row
had been eliminated.

All arithmetic is exact.  One fraction-free elimination kernel serves
every caller: it reduces a batch of integer rows against a row echelon
and keeps the independent ones.  exact_rank starts from an empty
echelon; the sampler keeps one echelon across lengths and feeds it only
the rows new at each length; express_in_span reduces the [A | b] rows
of the kept rows and back-substitutes, with rationals only in that last
step.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from . import debruijn
from .errors import (
    AlphabetMismatchError,
    BadParameterError,
    NotInSpanError,
)
from .words import (
    Alphabet,
    CircularWord,
    Letters,
    _dense_counts,
    check_size,
    enumerate_necklaces,
    occurrence_vector,
    word_string,
)


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable matrix of exact (arbitrary-precision) integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise BadParameterError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


@dataclass(frozen=True)
class FunctionalFamily:
    """An ordered family of occurrence functionals, one per column.

    When include_length is set, a leading column holds the plain length
    |W| (the count of the empty factor); the factor columns follow in
    the listed order.
    """

    d: int
    factors: tuple[Letters, ...]
    include_length: bool = False

    def __post_init__(self) -> None:
        if len(set(self.factors)) != len(self.factors):
            raise BadParameterError("duplicate factors in family")
        alphabet = Alphabet(self.d)
        for u in self.factors:
            if len(u) == 0:
                raise BadParameterError("use include_length for the empty factor")
            alphabet.validate(u)

    @property
    def ncols(self) -> int:
        return len(self.factors) + (1 if self.include_length else 0)

    def column_labels(self) -> tuple[str, ...]:
        head = ("length",) if self.include_length else ()
        return head + tuple(word_string(u) for u in self.factors)

    def extended(self, extra: Iterable[Letters]) -> "FunctionalFamily":
        """The family with extra factor columns appended (duplicates dropped)."""
        seen = set(self.factors)
        added = []
        for u in extra:
            u = tuple(u)
            if u not in seen:
                seen.add(u)
                added.append(u)
        return FunctionalFamily(
            d=self.d,
            factors=self.factors + tuple(added),
            include_length=self.include_length,
        )


def all_factors_family(d: int, l: int) -> FunctionalFamily:
    """All d^l factors of length l, lexicographically."""
    return FunctionalFamily(d=d, factors=tuple(Alphabet(d).words(l)))


def spanning_set_family(l: int = 4) -> FunctionalFamily:
    """The binary spanning set {0^l} union {1V : |V| = l-1}."""
    ones = tuple((1,) + v for v in Alphabet(2).words(l - 1))
    return FunctionalFamily(d=2, factors=((0,) * l,) + ones)


def cks_family(d: int, l: int) -> FunctionalFamily:
    """Length functional plus every factor of length <= l with nonzero ends."""
    factors = [
        u
        for m in range(1, l + 1)
        for u in Alphabet(d).words(m)
        if u[0] != 0 and u[-1] != 0
    ]
    return FunctionalFamily(d=d, factors=tuple(factors), include_length=True)


def occurrence_matrix(
    words: Sequence[CircularWord], family: FunctionalFamily
) -> IntegerMatrix:
    """Row per word, column per functional, exact counts as entries."""
    for w in words:
        if w.d != family.d:
            raise AlphabetMismatchError(f"word {w} has d={w.d}, family has d={family.d}")
    by_length: dict[int, list[Letters]] = {}
    for u in family.factors:
        by_length.setdefault(len(u), []).append(u)
    rows = []
    for w in words:
        vectors = {m: occurrence_vector(w, m).counts for m in by_length}
        row = [w.n] if family.include_length else []
        row += [vectors[len(u)].get(u, 0) for u in family.factors]
        rows.append(tuple(row))
    return IntegerMatrix(tuple(rows))


def exact_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, by fraction-free elimination of the rows."""
    return _bareiss_rank(m.entries, {})


def _bareiss_rank(rows: Collection[Sequence[int]], echelon: dict[int, list[int]]) -> int:
    """Reduce rows against echelon, keep the independent ones, return the rank.

    echelon maps a leading column to the one kept row whose first
    nonzero entry is in that column.  Each new row is cleared column by
    column, fraction-free as in Bareiss's elimination: at a column led
    by a kept row with entry p, where the row has f, the row becomes
    (p*row - f*kept)/g with g = gcd(p, f).  Kept rows have zeros before
    their leading column, so clearing a later column never refills an
    earlier one.  A row left nonzero is divided by the gcd of its
    entries and kept under its first nonzero column.
    """
    for r in rows:
        r = list(r)
        for col in range(len(r)):
            f = r[col]
            if not f:
                continue
            kept = echelon.get(col)
            if kept is None:
                g = math.gcd(*r)
                echelon[col] = [x // g for x in r]
                break
            p = kept[col]
            g = math.gcd(p, f)
            p, f = p // g, f // g
            r = [p * x - f * y for x, y in zip(r, kept)]
    return len(echelon)


def predicted_dimension(d: int, l: int) -> int:
    """(d-1) d^(l-1) + 1, the cyclomatic number of B(d,l-1)."""
    return (d - 1) * d ** (l - 1) + 1


def _flow_relations(d: int, l: int) -> list[list[int]]:
    """The flow law of B(d,l-1) as rows over the d^l length-l columns.

    Row v is sum_a x[va] - sum_a x[av]: both sums are |W|_v for every
    circular word W, so every count row is orthogonal to every relation.
    With the columns in lexicographic order and v read in base d,
    column va is v*d + a and column av is a*d^(l-1) + v.
    """
    vertices = d ** (l - 1)
    relations = []
    for v in range(vertices):
        row = [0] * (vertices * d)
        for a in range(d):
            row[v * d + a] += 1
            row[a * vertices + v] -= 1
        relations.append(row)
    return relations


def _check_sample(d: int, l: int, max_len: int) -> None:
    """Refuse a sample over the cap, or a bad alphabet, before anything is built.

    The cap is on d^max_len, the number of all words of the top length,
    and on d^l, the width of a row.
    """
    check_size(d, max_len, "sample words")
    check_size(d, l, "count columns")
    Alphabet(d)


def _obeys_flow_law(row: Sequence[int], d: int) -> bool:
    """Whether a row of length-l counts obeys the flow law of B(d,l-1).

    At every vertex the out-sum equals the in-sum: the same check as
    every row of _flow_relations, in O(d^l) C-level slice sums.
    """
    out_sums, in_sums = debruijn._edge_sums(d, row)
    return list(out_sums) == list(in_sums)


def _sample_echelon(
    d: int, l: int, max_len: int, bound: int | None = None
) -> tuple[dict[int, list[int]], list[tuple[int, int]]]:
    """An echelon of the length-l count rows of the sample, and its rank trace.

    The sample is the necklaces of each length 1..max_len, and a row is
    the word's d^l counts of length-l factors in lexicographic order.
    Both caps (_check_sample) are checked before anything is built.
    rank_by_length holds (m, rank) after the words of length m.

    bound, when given, is d^l - rank(R) for the flow relations R of
    B(d,l-1), the dimension of null(R).  Once the rank meets it and every
    kept row obeys the flow law, the kept rows span null(R), so a later
    row is in their span exactly when it obeys the law: it would reduce
    to zero.  Such rows are checked, not eliminated; a row that breaks
    the law still goes to the kernel.  The echelon and the trace are the
    same as without the bound.
    """
    _check_sample(d, l, max_len)
    echelon: dict[int, list[int]] = {}
    rank_by_length = []
    certified = False
    for m in range(1, max_len + 1):
        # The counts of a length-m word sum to m, so no row of this
        # length repeats one of an earlier length: the distinct rows of
        # length m are exactly the new ones, and each is reduced once.
        batch = {tuple(_dense_counts(w.letters, d, l)) for w in enumerate_necklaces(d, m)}
        if certified:
            batch = [row for row in batch if not _obeys_flow_law(row, d)]
        rank = _bareiss_rank(batch, echelon)
        rank_by_length.append((m, rank))
        certified = certified or (
            rank == bound and all(_obeys_flow_law(row, d) for row in echelon.values())
        )
    return echelon, rank_by_length


def _index(u: Letters, d: int) -> int:
    """The position of u among the d^|u| words of its length, lexicographically."""
    i = 0
    for a in u:
        i = i * d + a
    return i


def _marginals(
    rows: Iterable[Sequence[int]],
    d: int,
    l: int,
    factors: Sequence[Letters],
    include_length: bool,
) -> list[tuple[int, ...]]:
    """The family's values on each row of length-l counts, as block sums.

    For |u| <= l, |W|_u is the sum of |W|_v over the length-l words v
    that start with u, and in lexicographic order those v are one block
    of d^(l-|u|) columns, from index(u) * d^(l-|u|).  |W| is the sum of
    the whole row, the leading value when include_length is set.  The
    map is linear, so it may be applied to any combination of count rows.
    """
    blocks = []
    for u in factors:
        width = d ** (l - len(u))
        start = _index(u, d) * width
        blocks.append((start, start + width))
    values = []
    for row in rows:
        sums = list(itertools.accumulate(row, initial=0))
        head = (sums[-1],) if include_length else ()
        values.append(head + tuple(sums[b] - sums[a] for a, b in blocks))
    return values


def _family_rank(
    echelon: Collection[Sequence[int]], l: int, family: FunctionalFamily
) -> int:
    """Rank of the family's values on the sample, from the sample's kept rows.

    The value rows are the count rows times a fixed 0/1 matrix, so they
    span the same space as the kept rows times that matrix.
    """
    values = _marginals(echelon, family.d, l, family.factors, family.include_length)
    return _bareiss_rank(values, {})


@dataclass(frozen=True)
class SpanReport:
    """Measured rank of the length-l occurrence functionals.

    rank_by_length traces the cumulative rank as words of each length
    join the sample.  saturated means the rank is proven to be the
    dimension: every sample row obeys the flow relations R of B(d,l-1),
    as every count row of a circular word does, so d^l - rank(R) bounds
    the dimension from above, and the sample's rank reaches that bound.
    Rows sampled after that point are checked against the flow law
    instead of eliminated: the kept rows then span null(R), so a row
    that obeys the law adds no rank, and one that breaks it is
    eliminated, so the trace reads as if every row had been.

    echelon holds the kept rows in order of their leading columns; every
    sample row is in their span, so other families' ranks can be read
    off them.  It is not part of to_dict.
    """

    d: int
    l: int
    lengths: tuple[int, ...]
    rank: int
    predicted: int
    relations: int
    rank_by_length: tuple[tuple[int, int], ...]
    saturated: bool
    echelon: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "l": self.l,
            "lengths": list(self.lengths),
            "rank": self.rank,
            "predicted": self.predicted,
            "relations": self.relations,
            "rank_by_length": [list(t) for t in self.rank_by_length],
            "saturated": self.saturated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def span_dimension(d: int, l: int, max_len: int | None = None) -> SpanReport:
    """Rank of the matrix of all length-l counts over words up to max_len.

    The sample holds the necklaces of each length 1..max_len.  max_len
    defaults to 2l+2, which saturates the rank for every tested
    alphabet; an unsaturated result triggers a warning since the rank is
    then only a lower bound on the dimension.  Both caps are checked
    before the flow relations are built.
    """
    if l < 1:
        raise BadParameterError(f"factor length must be >= 1, got {l}")
    if max_len is None:
        max_len = 2 * l + 2
    if max_len < l:
        raise BadParameterError(f"need max_len >= l, got max_len={max_len} < l={l}")
    _check_sample(d, l, max_len)
    relations = _flow_relations(d, l)
    bound = d**l - _bareiss_rank(relations, {})
    echelon, rank_by_length = _sample_echelon(d, l, max_len, bound)
    rank = len(echelon)
    # The kept rows span every sample row they reduced, and every row
    # checked instead obeys the flow law, so checking them covers the sample.
    obeyed = all(
        sum(map(operator.mul, row, relation)) == 0
        for row in echelon.values()
        for relation in relations
    )
    saturated = obeyed and rank == bound
    if not saturated:
        warnings.warn(
            f"rank {rank} of ({d},{l}) functionals at max_len={max_len} is not "
            f"certified by the flow-relation bound {bound}; "
            "the reported rank is a lower bound",
            stacklevel=2,
        )
    return SpanReport(
        d=d,
        l=l,
        lengths=tuple(range(1, max_len + 1)),
        rank=rank,
        predicted=predicted_dimension(d, l),
        relations=d**l - rank,
        rank_by_length=tuple(rank_by_length),
        saturated=saturated,
        echelon=tuple(tuple(echelon[col]) for col in sorted(echelon)),
    )


def verify_spanning_set(max_len: int, l: int = 4, d: int = 2) -> bool:
    """Check that {0^l} union {1V} is independent and spans all length-l counts.

    Requires rank equal to 2^(l-1)+1 on the set alone, no rank growth
    when the remaining length-l columns join, and (as a structural
    cross-check) that the 1V words minus the loop 1^l form a spanning
    tree of B(2,l-1).
    """
    _require_binary(d)
    return _spanning_set_holds(_sample_echelon(d, l, max_len)[0].values(), l, d)


def _require_binary(d: int) -> None:
    if d != 2:
        raise BadParameterError("the 1V spanning set is defined for binary words")


def _spanning_set_holds(echelon: Collection[Sequence[int]], l: int, d: int) -> bool:
    """verify_spanning_set on the kept rows of a sample of length-l counts."""
    _require_binary(d)
    family = spanning_set_family(l)
    expected = predicted_dimension(d, l)
    if _family_rank(echelon, l, family) != expected:
        return False
    full = family.extended(Alphabet(d).words(l))
    if _family_rank(echelon, l, full) != expected:
        return False
    tree_edges = [u for u in family.factors if u[0] == 1 and u != (1,) * l]
    return debruijn.is_spanning_tree(debruijn.build_graph(2, l - 1), tree_edges)


def verify_cks_basis(d: int, l: int, max_len: int) -> bool:
    """Check the nonzero-first-and-last-letter basis of all counts up to l.

    The candidate basis is the length functional plus every factor of
    length 1..l whose first and last letters are nonzero; it must have
    rank (d-1)d^(l-1)+1 and absorb every factor of length <= l without
    rank growth.
    """
    return _cks_basis_holds(_sample_echelon(d, l, max_len)[0].values(), d, l)


def _cks_basis_holds(echelon: Collection[Sequence[int]], d: int, l: int) -> bool:
    """verify_cks_basis on the kept rows of a sample of length-l counts."""
    basis = cks_family(d, l)
    expected = predicted_dimension(d, l)
    if _family_rank(echelon, l, basis) != expected:
        return False
    everything = basis.extended(
        u for m in range(1, l + 1) for u in Alphabet(d).words(m)
    )
    return _family_rank(echelon, l, everything) == expected


def express_in_span(
    target: Letters, basis: FunctionalFamily, max_len: int
) -> tuple[Fraction, ...]:
    """Exact rational coefficients writing |W|_target over the basis columns.

    Solves the linear system sampled on the necklaces of length
    1..max_len; free variables (present only when the basis columns are
    dependent) are pinned to zero.  Raises NotInSpanError when no exact
    combination exists on the sample.  The sample rows count the factors
    of length L, the longest of the target and the basis factors, so d^L
    is capped like d^max_len.
    """
    target = tuple(target)
    Alphabet(basis.d).validate(target)
    if len(target) == 0:
        raise BadParameterError("express the length functional via include_length instead")
    factors = basis.factors + (target,)
    l = max(map(len, factors))
    echelon, _ = _sample_echelon(basis.d, l, max_len)
    rows = _marginals(echelon.values(), basis.d, l, factors, basis.include_length)
    return _solve(rows, basis.ncols)


def _solve(rows: Collection[Sequence[int]], ncols: int) -> tuple[Fraction, ...]:
    """A solution x of A x = b from the rows [A | b]; free variables are 0.

    Every echelon of a row space has the same leading columns, so the
    solution with the free variables pinned to zero is the same whatever
    echelon the kernel builds.
    """
    echelon: dict[int, list[int]] = {}
    _bareiss_rank(rows, echelon)
    if ncols in echelon:
        raise NotInSpanError("target functional is outside the basis span")
    solution = [Fraction(0)] * ncols
    for col in sorted(echelon, reverse=True):
        r = echelon[col]
        rest = sum(r[j] * solution[j] for j in range(col + 1, ncols))
        solution[col] = (r[ncols] - rest) / Fraction(r[col])
    return tuple(solution)


def marginalization_check(w: CircularWord, l: int) -> bool:
    """Every shorter count is the sum of its length-l prefix extensions.

    For each factor U with 1 <= |U| < l, |W|_U must equal the sum of
    |W|_V over the length-l words V having U as a prefix.
    """
    if l < 2:
        raise BadParameterError(f"marginalization needs l >= 2, got {l}")
    alphabet = Alphabet(w.d)
    long_counts = occurrence_vector(w, l).counts
    for m in range(1, l):
        short_counts = occurrence_vector(w, m).counts
        for u in alphabet.words(m):
            total = sum(
                long_counts.get(u + suffix, 0) for suffix in alphabet.words(l - m)
            )
            if short_counts.get(u, 0) != total:
                return False
    return True
