"""Exact linear algebra over occurrence-count functionals W -> |W|_U.

Sampling the functionals on all circular words up to a length builds an
integer matrix whose rational rank is the dimension of the space they
span.  For factors of length at most l over d letters that dimension is
(d-1)d^(l-1)+1, the cyclomatic number of B(d,l-1); this module verifies
the formula, the independent spanning set {0^l} union {1V}, and the
basis of factors whose first and last letters are nonzero.

span_dimension is the public way into the sample: verify_cks_basis,
verify_spanning_set and express_in_span read it, so they refuse what it
refuses and warn on an uncertified sample as it does.  By default the
sample is the certificate words: the word 0, and 0^(l-1)·y for each y
of length 1..l whose first and last letters are nonzero, d^l - d^(l-1)
+ 1 words of lengths 1..2l-1, whose rows are triangular on distinct
lead columns.  _triangular checks that in one pass with no elimination,
each word's sparse row made once and read by the rank, by each basis
span_dimension names, whatever max_len, and by express_in_span, which
solves on those rows alone once they pass, since they span every count
row.  For |u| <= l, |W|_u is the sum of the length-l counts over the
block of codes that start with u (_block_sums); the empty factor occurs
once at every position, so its count |W| sums every code.
Block sums are a fixed linear map, so ranks and solutions depend only
on the space the count rows span.  An explicit max_len only decides
saturation, on one word per rotation class of each length up to it,
the necklaces: every count |W|_U is the same on all rotations of W, so
they give the same distinct count rows as all d^m words of each length,
from about d^m/m words.  _sample_echelon reduces their rows into one
row echelon.  Both samples have one row form: a word's nonzero length-l
counts by code (_sparse_counts), at most |W| entries, never all d^l.
One cap bounds d^l before anything is built, and on the necklaces
d^max_len, which bounds what the sample holds.

Every count row obeys the flow law of B(d,l-1): at every vertex the
out-sum equals the in-sum, so the row lies in the cycle space of that
digraph.  Its flow relations form the incidence matrix, of rank V - c
for V vertices and c weakly connected components (Biggs, Algebraic Graph
Theory, ch. 4), so the cycle space has dimension d^l - d^(l-1) + c, the
cyclomatic number of B(d,l-1); no relation matrix is built.  debruijn
decides every flow-law question here, on the rows it is given: the
bound, from the package's one union-find, and whether a row obeys the
law.  Once the sample's rank meets the bound and every kept row obeys
the law, the kept rows span the cycle space, which holds every count
row, so the rank is the bound at every later length; the certificate
words meet the bound only with their last length, so this serves the
necklace sample, which stops there and samples no later length.  One
routine, _sample_rows, makes each length's distinct rows from the
necklaces' bare letters.

All arithmetic is exact.  One fraction-free elimination kernel serves
every caller: it reduces a batch of sparse integer rows, maps from a
column to its nonzero entry, against a row echelon and keeps the
independent ones.  exact_rank starts from an empty echelon with the
nonzero entries of each matrix row; the sampler keeps one echelon
across lengths and feeds it only the rows new at each length;
express_in_span reduces the [A | b] rows of the certificate words and
back-substitutes, with rationals only in that last step.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

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
    WordLike,
    _as_letters,
    _check_type,
    _circular,
    _necklaces,
    _require_binary,
    check_length,
    check_size,
    check_word,
    occurrence_vector,
    word_string,
)


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable matrix of exact (arbitrary-precision) integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not isinstance(entries, tuple) or not all(
            isinstance(r, tuple) and all(isinstance(x, int) for x in r) for r in entries
        ):
            raise BadParameterError(
                f"a matrix's entries must be a tuple of integer tuples, got {entries!r}"
            )
        widths = {len(r) for r in entries}
        if len(widths) > 1:
            raise BadParameterError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class FunctionalFamily:
    """An ordered family of occurrence functionals W -> |W|_u, one column per factor u.

    The empty factor () may stand anywhere: it occurs once at every
    position, so its column holds the length |W|, labelled "length".
    """

    d: int
    factors: tuple[Letters, ...]

    def __post_init__(self) -> None:
        factors = self.factors
        if not isinstance(factors, tuple) or not all(isinstance(u, tuple) for u in factors):
            raise BadParameterError(
                f"a family's factors must be a tuple of letter tuples, got {factors!r}"
            )
        if len(set(factors)) != len(factors):
            raise BadParameterError("duplicate factors in family")
        alphabet = Alphabet(self.d)
        for u in factors:
            alphabet.validate(u)

    def column_labels(self) -> tuple[str, ...]:
        return tuple(word_string(u) if u else "length" for u in self.factors)


def all_factors_family(d: int, l: int) -> FunctionalFamily:
    """All d^l factors of length l, lexicographically; d^l is capped."""
    check_size(d, l, "factors")
    return FunctionalFamily(d=d, factors=tuple(Alphabet(d).words(l)))


def spanning_set_family(l: int = 4) -> FunctionalFamily:
    """The binary spanning set {0^l} union {1V : |V| = l-1}; 2^(l-1) is capped."""
    check_length(l, "factor length")
    check_size(2, l - 1, "words V")
    ones = tuple((1,) + v for v in Alphabet(2).words(l - 1))
    return FunctionalFamily(d=2, factors=((0,) * l,) + ones)


def cks_family(d: int, l: int) -> FunctionalFamily:
    """The empty factor, for the length, then every factor of length <= l with nonzero ends.

    The words of each length up to l are listed, so d^l is capped.
    """
    check_length(l, "factor length")
    check_size(d, l, "factors")
    factors = [
        u
        for m in range(1, l + 1)
        for u in Alphabet(d).words(m)
        if u[0] != 0 and u[-1] != 0
    ]
    return FunctionalFamily(d=d, factors=((),) + tuple(factors))


def occurrence_matrix(
    words: Sequence[CircularWord], family: FunctionalFamily
) -> IntegerMatrix:
    """Row per word, column per functional, exact counts as entries; () counts |W|."""
    _check_type(family, FunctionalFamily, "occurrence_matrix")
    _check_type(words, Iterable, "occurrence_matrix")
    lengths = {len(u) for u in family.factors if u}
    rows = []
    for w in words:
        check_word(w, "occurrence_matrix")
        if w.d != family.d:
            raise AlphabetMismatchError(f"word {w} has d={w.d}, family has d={family.d}")
        vectors = {m: occurrence_vector(w, m).counts for m in lengths}
        rows.append(tuple(vectors[len(u)].get(u, 0) if u else w.n for u in family.factors))
    return IntegerMatrix(tuple(rows))


def exact_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, by fraction-free elimination of the rows."""
    _check_type(m, IntegerMatrix, "exact_rank")
    return _bareiss_rank([{j: x for j, x in enumerate(r) if x} for r in m.entries], {})


def _bareiss_rank(
    rows: Collection[Mapping[int, int] | Iterable[tuple[int, int]]],
    echelon: dict[int, dict[int, int]],
) -> int:
    """Reduce rows against echelon, keep the independent ones, return the rank.

    A row maps each column to its nonzero entry, as a dict or as
    (column, entry) pairs.  echelon maps a leading column to the one
    kept row whose first nonzero entry is in that column.  Each new row
    is cleared at its first column, min(r), fraction-free as in
    Bareiss's elimination: at a column led by a kept row with entry p,
    where the row has f, the row becomes (p*row - f*kept)/g with g =
    gcd(p, f), and entries that cancel leave it.  Kept rows have no
    entry before their leading column, so clearing a later column never
    refills an earlier one.  A row left nonzero is divided by the gcd
    of its entries and kept under its first column.
    """
    for r in rows:
        r = dict(r)
        while r:
            col = min(r)
            kept = echelon.get(col)
            if kept is None:
                g = math.gcd(*r.values())
                echelon[col] = {j: x // g for j, x in r.items()}
                break
            g = math.gcd(kept[col], r[col])
            p, f = kept[col] // g, r[col] // g
            r = {j: p * x for j, x in r.items()}
            for j, y in kept.items():
                r[j] = r.get(j, 0) - f * y
            r = {j: x for j, x in r.items() if x}
    return len(echelon)


def predicted_dimension(d: int, l: int) -> int:
    """(d-1) d^(l-1) + 1, the cyclomatic number of B(d,l-1)."""
    _check_type(d, int, "predicted_dimension")
    check_length(l, "factor length")
    return (d - 1) * d ** (l - 1) + 1


def _sample_rows(letters: Iterable[Letters], d: int, l: int) -> set[frozenset[tuple[int, int]]]:
    """The distinct length-l count rows of the words.

    The sample's one row routine.  A row is a word's nonzero length-l
    counts by code (_sparse_counts), held as a frozenset of (code,
    count) pairs, so equal rows are kept once.
    """
    return {frozenset(_sparse_counts(a, d, l).items()) for a in letters}


def _certificate_words(d: int, l: int, m: int) -> Iterator[Letters]:
    """The certificate words of length m: the word 0 at m = 1, and 0^(l-1)·y.

    y runs over the words of length m-l+1 whose first and last letters
    are nonzero, in lexicographic order, so the words have lengths
    1..2l-1 and there are d^l - d^(l-1) + 1 of them in all.
    """
    if m == 1:
        yield (0,)
    if m >= l:
        pad = (0,) * (l - 1)
        for y in itertools.product(range(d), repeat=m - l + 1):
            if y[0] and y[-1]:
                yield pad + y


def _sparse_counts(w: Letters | bytes, d: int, l: int) -> Counter[int]:
    """The nonzero length-l counts of the circular word w by factor code, in O(|w| + l).

    The one row form of both rank samples, at most |w| entries.
    """
    size = d**l
    codes = itertools.accumulate(_circular(w, l - 1), lambda c, a: (c * d + a) % size)
    return Counter(itertools.islice(codes, l - 1, None))


def _triangular(
    d: int, l: int, checks: Sequence[tuple], consume: Callable | None = None
) -> tuple[list[int], list[tuple[int, bool]]]:
    """The certificate words' rows checked triangular on their leads, in one pass.

    Each of the checks, at least one, is (count, lead, values).  Word i,
    0^(l-1)·y or the word 0 with y = (), leads at lead(y), which no
    earlier word's lead may equal.  Its row, values() of its sparse
    length-l counts or, with values None, the counts checked against the
    flow law, must be nonzero at that lead and zero at every later
    word's.  The count row of 0^(l-1)·y leads at y left-padded with
    zeros, its other factors ending in a nonzero letter being shorter
    prefixes of y; the word 0 leads at 0^l.  The rows before a check's
    first failure are triangular, so independent.  Leads are taken
    first, so no row is kept: each word's counts are made once, for
    consume and every check not yet failed, and with no consume the pass
    stops once all have.  Returns the words up to each length 1..2l-1
    and, per check, the rows passed and whether all did, count of them.
    """
    leads, ends = [[] for _ in checks], []
    for m in range(1, 2 * l):
        for w in _certificate_words(d, l, m):
            y = w[l - 1 :] if any(w) else ()
            for ks, (_, lead, _) in zip(leads, checks):
                ks.append(lead(y))
        ends.append(len(leads[0]))
    positions = [dict(zip(reversed(ks), reversed(range(len(ks))))) for ks in leads]
    passed = [total := ends[-1]] * len(checks)
    words = (w for m in range(1, 2 * l) for w in _certificate_words(d, l, m))
    for i, w in enumerate(words):
        live = [j for j, p in enumerate(passed) if p == total]
        if not live and consume is None:
            break
        counts = _sparse_counts(w, d, l)
        if consume is not None:
            consume(counts)
        for j in live:
            values, k, at = checks[j][2], leads[j][i], positions[j]
            row = counts if values is None else values(counts)
            flows = values is not None or debruijn._balanced(counts.items(), d, d ** (l - 1))
            if not flows or at[k] != i or not row.get(k) or any(at.get(c, i) > i for c in row):
                passed[j] = i
    return ends, [(p, p == total == count) for p, (count, _, _) in zip(passed, checks)]


def _bound(d: int, l: int) -> int:
    """The cyclomatic number of B(d,l-1), once d^l is capped and the alphabet checked."""
    check_size(d, l, "count columns")
    Alphabet(d)
    return debruijn._cyclomatic(d, l - 1)


def _sample_echelon(
    d: int, l: int, max_len: int
) -> tuple[dict[int, dict[int, int]], list[tuple[int, int]], int, bool]:
    """An echelon of the length-l count rows of the sample, and its certificate.

    The sample is the necklaces of each length 1..max_len
    (words._necklaces), as bare letter tuples, and _sample_rows makes
    each length's distinct sparse rows; no word object is built.  A bad
    length or alphabet is refused, and so are the caps before anything
    is built: on d^max_len, the number of all words of the top length,
    which bounds the rows' entries, and on d^l, the edges of the bound's
    graph.  Returns (echelon, rank_by_length, bound, certified), where
    rank_by_length holds (m, rank) after the words of length m.

    bound is the cyclomatic number of B(d,l-1), d^l - d^(l-1) + c with c
    its weakly connected components from the union-find: the dimension
    of its cycle space, which holds every count row, since a circular
    word's length-l counts are the edge counts of a closed walk.
    certified is set once the rank meets the bound with every kept row
    obeying the flow law (debruijn._balanced).  The kept rows then span
    the cycle space, so the rank is proven to be the dimension, and by
    that theorem it is the bound at every later length: those lengths
    are not sampled, and each records the echelon's size.

    Up to length l the trace is known: after the words of length m <= l
    the rank is the number of Lyndon words of length at most m, the sum
    over n <= m of L_d(n) = (1/n) sum_{k|n} mu(n/k) d^k.  A necklace
    u^k, u a Lyndon word, has k times u's row, so the Lyndon rows span.
    A Lyndon word w of length n <= l is strictly less than its other
    rotations, so its least length-l factor, the first l letters of w
    repeated, occurs once and leads its row with count 1: code order is
    lexicographic, so that lead is min(r).  Lyndon words of one length
    have distinct leads, whose first n letters are the word itself, and
    two Lyndon words u, v with |u| < |v| <= l cannot share one: v would
    be u^k·u' with u' a proper prefix of u, a power if u' is empty and
    bordered by u' if not, and Lyndon words are primitive and unbordered
    (Lothaire, Combinatorics on Words, ch. 5).  _bareiss_rank clears a
    row at min(r), so each Lyndon row is kept as it comes, under its own
    lead, and a power's row, k times a kept one, clears to zero.
    """
    check_length(l, "factor length")
    check_size(d, max_len, "sample words")
    bound = _bound(d, l)
    echelon: dict[int, dict[int, int]] = {}
    rank_by_length = []
    certified = False
    for m in range(1, max_len + 1):
        if not certified:
            # The counts of a length-m word sum to m, so no row of this
            # length repeats one of an earlier length: the distinct rows
            # of length m are exactly the new ones, and each is reduced
            # once.
            rank = _bareiss_rank(_sample_rows(_necklaces(d, m), d, l), echelon)
            certified = rank == bound and all(
                debruijn._balanced(row.items(), d, d ** (l - 1)) for row in echelon.values()
            )
        rank_by_length.append((m, len(echelon)))
    return echelon, rank_by_length, bound, certified


def _index(u: Letters, d: int) -> int:
    """The position of u among the d^|u| words of its length, lexicographically."""
    i = 0
    for a in u:
        i = i * d + a
    return i


def _block_sums(
    d: int, l: int, factors: Iterable[Letters]
) -> Callable[[Counter[int]], dict[Letters, int]]:
    """The factors' values on a row of length-l counts by code, as block sums.

    For |u| <= l, |W|_u is the sum of the counts of the codes c with
    c // d^(l-|u|) = index(u): in lexicographic order the length-l words
    that start with u are one block.  The block of the empty factor is
    every code, whose counts sum to |W|.  The returned map takes a row
    to its nonzero values, keyed by factor.
    """
    blocks: dict[int, dict[int, Letters]] = {}
    for u in factors:
        blocks.setdefault(d ** (l - len(u)), {})[_index(u, d)] = u

    def values(counts: Counter[int]) -> dict[Letters, int]:
        row: dict[Letters, int] = {}
        for (c, n), (b, at) in itertools.product(counts.items(), blocks.items()):
            if (u := at.get(c // b)) is not None:
                row[u] = row.get(u, 0) + n
        return row

    return values


@dataclass(frozen=True)
class SpanReport:
    """Measured rank of the length-l occurrence functionals.

    rank_by_length traces the cumulative rank as words of each length
    join the sample; by default the rank counts the certificate words
    whose rows pass _triangular before the first that fails, a proven
    lower bound.  saturated means the rank is proven to be the
    dimension: every count row of a circular word obeys the flow law of
    B(d,l-1), so the cyclomatic number of that graph bounds the
    dimension from above, and the sample's rank reaches that bound with
    every kept row obeying the law.  On necklaces the kept rows then span
    the cycle space, so the rank is the bound at every later length, and
    the sample stops there: a later length of the trace repeats the
    bound, with no word of it counted.  bases holds (name, verdict) for
    each basis span_dimension was asked to check.
    """

    d: int
    l: int
    lengths: tuple[int, ...]
    rank: int
    predicted: int
    relations: int
    rank_by_length: tuple[tuple[int, int], ...]
    saturated: bool
    bases: tuple[tuple[str, bool], ...] = ()

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
            **dict(self.bases),
        }


def span_dimension(
    d: int, l: int, max_len: int | None = None, bases: Sequence[str] = ()
) -> SpanReport:
    """Rank of the matrix of all length-l counts over a sample of words, and the named bases.

    Without max_len the sample is the certificate words of lengths
    1..2l-1, checked by _triangular, and d^l is the one cap; with it, the
    necklaces of each length 1..max_len (_sample_echelon).  An
    unsaturated result triggers a warning since the rank is then only a
    lower bound on the dimension.  The bound is the cyclomatic number of
    B(d,l-1), taken from the union-find after the caps are checked; no
    relation matrix is built.

    Each basis named holds when the sample is saturated and its family
    is triangular on every certificate word, checked in the same pass
    whatever max_len.  "cks_basis" is cks_family(d, l), y leading at y
    (its other factors with nonzero ends are shorter, inside y);
    "spanning_set" is spanning_set_family(l), y leading at y·0^(l-|y|)
    (its other 1V factors are y's shorter suffixes that start with 1),
    whose 1V words but 1^l must be a spanning tree of B(2,l-1), empty at
    l = 1.  An unknown name, or "spanning_set" at d != 2, is refused first.
    """
    return _span(d, l, max_len, bases)


def _span(
    d: int, l: int, max_len: int | None, bases: Sequence[str], consume: Callable | None = None
) -> SpanReport:
    """span_dimension; consume, given with max_len None, gets each certificate word's counts."""
    if unknown := set(bases) - {"cks_basis", "spanning_set"}:
        raise BadParameterError(f"unknown bases {sorted(unknown)}")
    if "spanning_set" in bases:
        _require_binary(d, "the 1V spanning set")
    check_length(l, "factor length")
    if max_len is not None and (not isinstance(max_len, int) or max_len < l):
        raise BadParameterError(f"need max_len >= l, got max_len={max_len!r} < l={l}")
    checks = []
    if max_len is None:
        bound = _bound(d, l)
        checks.append((bound, functools.partial(_index, d=d), None))
    else:
        _, rank_by_length, bound, saturated = _sample_echelon(d, l, max_len)
    families = [cks_family(d, l) if n == "cks_basis" else spanning_set_family(l) for n in bases]
    for name, family in zip(bases, families):
        lead = (lambda y: y) if name == "cks_basis" else (lambda y: y + (0,) * (l - len(y)))
        checks.append((len(family.factors), lead, _block_sums(d, l, family.factors)))
    ends, results = _triangular(d, l, checks, consume) if checks else ([], [])
    if max_len is None:
        (passed, saturated), *results = results
        rank_by_length = [(m, min(n, passed)) for m, n in enumerate(ends, 1)]
    verdicts = []
    for name, family, (_, ok) in zip(bases, families, results):
        if saturated and ok and name == "spanning_set":
            tree = [u for u in family.factors if u[0] == 1 and u != (1,) * l]
            graph = debruijn.build_graph(2, l - 1) if l > 1 else None
            ok = debruijn.is_spanning_tree(graph, tree) if graph else not tree
        verdicts.append((name, saturated and ok))
    top, rank = rank_by_length[-1]
    if not saturated:
        warnings.warn(
            f"rank {rank} of ({d},{l}) functionals at max_len={top} is not certified "
            f"by the flow-relation bound {bound}; the reported rank is a lower bound",
            stacklevel=3,
        )
    return SpanReport(
        d=d,
        l=l,
        lengths=tuple(range(1, top + 1)),
        rank=rank,
        predicted=predicted_dimension(d, l),
        relations=d**l - rank,
        rank_by_length=tuple(rank_by_length),
        saturated=saturated,
        bases=tuple(verdicts),
    )


def verify_spanning_set(max_len: int, l: int = 4) -> bool:
    """Check that the binary {0^l} union {1V} is independent and spans all length-l counts.

    span_dimension's "spanning_set" verdict: a saturated sample, the set
    triangular on the certificate words whatever max_len, and (as a
    structural cross-check) the 1V words minus the loop 1^l a spanning
    tree of B(2,l-1).  max_len < l is refused, and a sample whose rank
    is not certified gives a warning.
    """
    return span_dimension(2, l, max_len, ("spanning_set",)).bases[0][1]


def verify_cks_basis(d: int, l: int, max_len: int) -> bool:
    """Check the nonzero-first-and-last-letter basis of all counts up to l.

    The candidate basis is cks_family's: the empty factor, whose count is
    the length, and every factor of length 1..l whose first and last
    letters are nonzero: span_dimension's "cks_basis" verdict, a
    saturated sample and the basis triangular on the certificate words
    whatever max_len.  max_len < l is refused, and a sample whose rank
    is not certified gives a warning.
    """
    return span_dimension(d, l, max_len, ("cks_basis",)).bases[0][1]


def express_in_span(
    target: WordLike, basis: FunctionalFamily, max_len: int | None = None
) -> tuple[Fraction, ...]:
    """Exact rational coefficients writing |W|_target over the basis columns, for every W.

    One coefficient per basis factor, in order; the empty target is the
    length |W|.  L is the longest of the target and the basis factors,
    at least 1.  span_dimension(d, L)'s pass applies the caps and proves
    that the certificate words' count rows span every count row; the
    system is solved on those words, each row the basis values and the
    target's, block sums of the counts the pass makes.  Free variables
    (present only when the basis columns are dependent) are pinned to
    zero.  So the coefficients hold on every circular word, NotInSpanError
    says no combination does, and an unproven span gives span_dimension's
    warning.  max_len is refused unless None or an integer >= 1, and
    nothing else reads it: it stays because callers pass it positionally.
    """
    if max_len is not None:
        check_length(max_len, "max_len")
    _check_type(basis, FunctionalFamily, "express_in_span")
    target = _as_letters(target)
    d = basis.d
    Alphabet(d).validate(target)
    factors = basis.factors + (target,)
    l = max(1, *map(len, factors))
    values, columns, rows = _block_sums(d, l, factors), list(enumerate(factors)), []

    def consume(counts: Counter[int]) -> None:
        row = values(counts)
        rows.append({j: row[u] for j, u in columns if u in row})

    _span(d, l, None, (), consume)
    return _solve(rows, len(basis.factors))


def _solve(
    rows: Collection[Mapping[int, int] | Iterable[tuple[int, int]]], ncols: int
) -> tuple[Fraction, ...]:
    """A solution x of A x = b from the rows [A | b], column ncols b; free variables are 0.

    The rows are the kernel's, a map of nonzero entries each.  Every
    echelon of a row space has the same leading columns, so the solution
    with the free variables pinned to zero is the same whatever echelon
    the kernel builds.
    """
    echelon: dict[int, dict[int, int]] = {}
    _bareiss_rank(rows, echelon)
    if ncols in echelon:
        raise NotInSpanError("target functional is outside the basis span")
    solution = [Fraction(0)] * ncols
    for col in sorted(echelon, reverse=True):
        r = echelon[col]
        rest = sum(x * solution[j] for j, x in r.items() if col < j < ncols)
        solution[col] = (r.get(ncols, 0) - rest) / Fraction(r[col])
    return tuple(solution)


def marginalization_check(w: CircularWord, l: int) -> bool:
    """Every shorter count is the sum of its length-l prefix extensions.

    For each factor U with 1 <= |U| < l, |W|_U must equal the sum of
    |W|_V over the length-l words V having U as a prefix: the block sums
    (_block_sums) of the sparse length-l counts must equal the counts of
    every shorter length (occurrence_vector).  Each shorter length lists
    all its words, so d^l is capped.
    """
    check_word(w, "marginalization_check")
    if not isinstance(l, int) or l < 2:
        raise BadParameterError(f"marginalization needs l >= 2, got {l!r}")
    d = w.d
    check_size(d, l, "factors")
    values = _block_sums(d, l, (u for m in range(1, l) for u in Alphabet(d).words(m)))
    shorter = {u: n for m in range(1, l) for u, n in occurrence_vector(w, m).counts.items()}
    return values(_sparse_counts(w._data, d, l)) == shorter
