"""The G-invariant and catenary data of a matroid, exactly.

A rank sequence is a 0/1 string of length n with r ones; its gap encoding is
an (n,r)-composition (a_0, a_1, ..., a_r) with a_0 >= 0 and a_j > 0 for
j >= 1.  The G-invariant of a matroid is the integer vector counting, over
all n! element orderings, the rank sequence each ordering produces.  The
catenary data counts flags (maximal chains of flats) by composition, and is
the coordinate vector of the G-invariant in the triangular gamma basis.

The two carry the same information, so each value holds what has been
computed from it in one memo map (`held`): a G-invariant its gamma
coordinates, which `g_from_catenary` stores and `catenary_from_g` solves
once.  An invariant read from outside (a file, a deck) holds none, so it
always gets the full solve and its checks.  `catenary` solves M from its
configuration when M lists its cyclic flats or has corank r - 2 or less,
and walks its flats otherwise; no G is built on the way.

All coefficients are exact Python ints; the Tutte specialization runs on
integers scaled by n!, and n! must divide every coefficient.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from .errors import ExactnessError, held
from .matroid import Matroid, _basis_scan, _small_corank, elements_of

DEFAULT_ORACLE_LIMIT = 9  # largest n the brute-force oracles take


# -- sequences and compositions ---------------------------------------------

def seq_to_comp(seq: str) -> tuple[int, ...]:
    """Gap encoding of a 0/1 string: 0^{a_0} 1 0^{a_1 - 1} ... 1 0^{a_r - 1}."""
    if set(seq) - {"0", "1"}:
        raise ValueError(f"not a 0/1 sequence: {seq!r}")
    parts = [0]
    for ch in seq:
        if ch == "1":
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def comp_to_seq(comp) -> str:
    """Inverse of seq_to_comp."""
    comp = tuple(comp)
    if comp[0] < 0 or any(a < 1 for a in comp[1:]):
        raise ValueError(f"not a composition: {comp}")
    return "0" * comp[0] + "".join("1" + "0" * (a - 1) for a in comp[1:])


def dominates(b, a) -> bool:
    """b dominates a: every prefix sum of b is at most that of a."""
    b, a = tuple(b), tuple(a)
    if len(b) != len(a) or sum(b) != sum(a):
        raise ValueError(f"compositions of different shape: {b} vs {a}")
    pb = pa = 0
    for x, y in zip(b, a):
        pb += x
        pa += y
        if pb > pa:
            return False
    return True


def compositions(n: int, r: int):
    """All (n,r)-compositions: a_0 >= 0, a_j >= 1, summing to n."""
    if r == 0:
        yield (n,)
        return
    for cuts in itertools.combinations(range(n), r):
        parts = [cuts[0]] + [cuts[i + 1] - cuts[i] for i in range(r - 1)] \
            + [n - cuts[r - 1]]
        yield tuple(parts)


# -- invariant containers ----------------------------------------------------

def _clean(mapping) -> dict:
    return {k: int(v) for k, v in mapping.items() if v != 0}


@dataclass(frozen=True)
class GInvariant:
    """Integer vector on the rank-sequence symbols of shape (n, r).

    `_held` is the memo map of `held`; it takes no part in equality,
    hashing or repr.  A G read from a file comes straight from this
    constructor, so it holds nothing.
    """

    n: int
    r: int
    coeffs: Mapping[str, int] = field(default_factory=dict)
    _held: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        coeffs = _clean(self.coeffs)
        n, r = self.n, self.r
        for key in coeffs:
            if len(key) != n or key.count("1") != r:
                raise ValueError(f"symbol {key!r} is not an ({n},{r})-sequence")
        # each symbol has n - r characters besides its r ones: one count
        # over all the symbols checks that they are zeros
        if "".join(coeffs).count("0") != (n - r) * len(coeffs):
            key = next(key for key in coeffs if key.count("0") != n - r)
            raise ValueError(f"symbol {key!r} is not an ({n},{r})-sequence")
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, key: str) -> int:
        return self.coeffs.get(key, 0)

    def total(self) -> int:
        """Sum of all coefficients; n! for the invariant of a matroid."""
        return sum(self.coeffs.values())

    def items(self):
        return sorted(self.coeffs.items())

    def __hash__(self):
        return hash((self.n, self.r, frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = " + ".join(f"{c}[{k}]" for k, c in self.items())
        return f"GInvariant({self.n},{self.r}: {terms})"


@dataclass(frozen=True)
class CatenaryData:
    """Flag counts by (n,r)-composition: the gamma-basis coordinates.

    `_held` is the memo map of `held`, as on `GInvariant`.
    """

    n: int
    r: int
    counts: Mapping[tuple, int] = field(default_factory=dict)
    _held: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        counts = {}
        for key, v in self.counts.items():
            key = tuple(int(a) for a in key)
            if v == 0:
                continue
            if (len(key) != self.r + 1 or sum(key) != self.n or key[0] < 0
                    or any(a < 1 for a in key[1:])):
                raise ValueError(f"{key} is not an ({self.n},{self.r})-composition")
            counts[key] = int(v)
        object.__setattr__(self, "counts", counts)

    def __getitem__(self, key) -> int:
        return self.counts.get(tuple(key), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def items(self):
        return sorted(self.counts.items())

    def loops(self) -> int:
        """Common first part of the keys: the number of loops."""
        firsts = {key[0] for key in self.counts}
        if len(firsts) != 1:
            raise ExactnessError(f"inconsistent loop counts across keys: {sorted(firsts)}")
        return firsts.pop()

    def __hash__(self):
        return hash((self.n, self.r, frozenset(self.counts.items())))

    def __repr__(self):
        terms = ", ".join(f"{k}: {c}" for k, c in self.items())
        return f"CatenaryData({self.n},{self.r}: {{{terms}}})"


@dataclass(frozen=True)
class TuttePolynomial:
    """Bivariate polynomial with exact integer coefficients on x^i y^j."""

    terms: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            {(int(i), int(j)): int(c) for (i, j), c in self.terms.items() if c != 0})

    def __getitem__(self, key) -> int:
        return self.terms.get(tuple(key), 0)

    def items(self):
        return sorted(self.terms.items())

    def evaluate(self, x, y):
        return sum(c * x ** i * y ** j for (i, j), c in self.terms.items())

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        def term(i, j, c):
            mono = ((f"x^{i}" if i > 1 else "x" if i else "")
                    + (f"y^{j}" if j > 1 else "y" if j else ""))
            if mono and c in (1, -1):
                return mono if c == 1 else f"-{mono}"
            return f"{c}{mono}"
        body = " + ".join(
            term(i, j, c) for (i, j), c in sorted(self.terms.items(), reverse=True)
        ).replace(" + -", " - ")
        return f"TuttePolynomial({body or 0})"


# -- gamma basis --------------------------------------------------------------

@lru_cache(maxsize=None)
def gamma_coeffs(a: tuple) -> dict[str, int]:
    """Symbol-basis coefficients of gamma(a), keyed by rank sequence.

    Support is exactly the dominance up-set of a; the diagonal coefficient is
    a_0! * prod_j a_j (a_j - 1)!.  The coefficient of b is a product of
    falling powers, each set by b_j and the prefix sum of b before j, so a
    depth-first walk over b_0, b_1, ... grows them one factor per step.
    """
    a = tuple(int(x) for x in a)
    if a[0] < 0 or any(x < 1 for x in a[1:]):
        raise ValueError(f"not a composition: {a}")
    r = len(a) - 1
    if r == 0:
        return {"0" * a[0]: math.factorial(a[0])}
    pa = list(itertools.accumulate(a))
    out = {}

    def walk(j, used, coeff, sym):
        top = pa[j] - 1 - used  # a_j - 1 + slack_j: b_j - 1 runs up to it
        coeff *= a[j]
        if j == r:
            out[sym + "1" + "0" * top] = coeff * math.factorial(top)
            return
        for k in range(top + 1):
            walk(j + 1, used + k + 1, coeff, sym + "1" + "0" * k)
            coeff *= top - k

    coeff = 1
    for b0 in range(a[0] + 1):
        walk(1, b0, coeff, "0" * b0)
        coeff *= a[0] - b0
    return out


def gamma_expand(a) -> GInvariant:
    a = tuple(a)
    return GInvariant(sum(a), len(a) - 1, gamma_coeffs(a))


def gamma_one(a: tuple) -> int:
    """All-ones specialization of gamma(a): the number of element orderings
    that generate one flag of composition a, n! prod_i a_i / (n - s_(i-1))
    with s_i = a_0 + ... + a_i, since the first element outside X_(i-1)
    must lie in X_i.

    Split n! into the blocks n!/(n - a_0)! and (n - s_(i-1))!/(n - s_i)!;
    each (n - s_(i-1)) cancels the first factor of block i, so the count is
    a product of falling factorials and no division is made.
    """
    rest = sum(a) - a[0]
    out = math.perm(rest + a[0], a[0])
    for x in a[1:]:
        out *= x * math.perm(rest - 1, x - 1)
        rest -= x
    return out


# -- catenary data of a matroid -----------------------------------------------

def catenary(m: Matroid) -> CatenaryData:
    """Flag counts by composition: the copoint census of a paving
    presentation, else those of the matroid less its coloops, solved from
    its cyclic flats or walked (`_flag_walk`).

    A paving matroid of rank >= 2 has its catenary data fixed by its count
    of copoints of each size (`paving_catenary`), so a presentation holding
    that census walks nothing.  A matroid with k coloops is its deletion of
    them plus U(k,k), the design with flat sizes 0, 1, ..., k, so only that
    deletion is solved, a graph or a list when m is one, and the coloops are
    shuffled back in by `cat_direct_sum`; the walk never sees the 2^k copies
    of the deletion's flats that they would multiply it into.  A list lists
    its cyclic flats, and at corank r - 2 or less the dual's smaller lattice
    gives them (`Matroid.cyclic_flats`): the configuration theorem solves
    their containment order, and no `Configuration` is built.  A matroid of
    loops or coloops alone is U(0,n) or U(n,n): no minor.
    """
    if m.copoint_sizes is not None:
        return paving_catenary(m.n, m.r, m.copoint_sizes)
    if m.r == 0:
        return pmd_catenary([m.n])
    coloops = m.coloops()
    if coloops == m.full:
        return pmd_catenary(range(m.n + 1))
    core = m.delete(coloops) if coloops else m
    if core._cyclic_flats_of is None and not _small_corank(core):
        c = _flag_walk(core)
    else:
        # configuration imports this module, so it is imported here
        from .configuration import _containment, _Lattice
        lattice = _Lattice(*_containment(core.cyclic_flats()))
        c = CatenaryData(core.n, core.r, lattice.flags())
    if not coloops:
        return c
    return cat_direct_sum(c, pmd_catenary(range(coloops.bit_count() + 1)))


def _flag_walk(m: Matroid) -> CatenaryData:
    """Flag counts by composition of the flats of m, by a walk up from the
    bottom flat rank by rank.

    A composition is its set of partial sums s_0 < s_1 < ... < s_r = n, so
    a chain from the bottom flat up to a flat is keyed by the bitmask of
    its flat sizes, and a cover C extends the key by 1 << |C|.  Each
    rank-k flat carries a dict from keys to chain counts; the covers of
    the rank-k flats, from `Matroid.covers`, extend them to rank k+1.
    Only two ranks of dicts are held at a time, and the keys of E are
    decoded into compositions once, at the end.
    """
    bottom = m.closure(0)
    level = {bottom: {1 << bottom.bit_count(): 1}}
    for _ in range(m.r):
        above: dict[int, dict[int, int]] = {}
        for flat, keys in level.items():
            for cov in m.covers(flat):
                bit = 1 << cov.bit_count()
                if (acc := above.get(cov)) is None:
                    above[cov] = {key | bit: cnt for key, cnt in keys.items()}
                else:
                    for key, cnt in keys.items():
                        key |= bit
                        acc[key] = acc.get(key, 0) + cnt
        level = above
    counts = {}
    for key, cnt in level[m.full].items():
        s = elements_of(key)
        counts[(s[0], *(b - a for a, b in itertools.pairwise(s)))] = cnt
    return CatenaryData(m.n, m.r, counts)


def _interleavings(a: tuple, b: tuple) -> dict[tuple, int]:
    """Each interleaving of the tuples a and b, with how many position sets
    of a give it.

    Built one part at a time: a state is (i, s), the interleavings of a[:i]
    and b[:j] that spell the prefix s, for the j that fills it.  Position
    sets that reach one state share every continuation, so they merge into
    one state with the sum of their counts.  Once a or b is spent the rest
    is forced, so the state is finished at once.  Only one length of
    prefixes is held at a time, and nothing recurses.
    """
    p, q = len(a), len(b)
    out: dict[tuple, int] = {}
    level, d = {(0, ()): 1}, 0
    while level:
        above: dict[tuple, int] = {}
        for (i, s), w in level.items():
            j = d - i
            if i == p or j == q:
                key = s + a[i:] + b[j:]
                out[key] = out.get(key, 0) + w
                continue
            for key in ((i + 1, s + a[i:i + 1]), (i, s + b[j:j + 1])):
                above[key] = above.get(key, 0) + w
        level, d = above, d + 1
    return out


def cat_direct_sum(c1: CatenaryData, c2: CatenaryData) -> CatenaryData:
    """Catenary data of a direct sum: shuffle the positive parts, add loops.

    A flag of the sum interleaves a flag of each side, so each pair of keys
    gives every interleaving of their positive parts, each weighted by its
    number of position sets (`_interleavings`), so that repeated parts are
    merged rather than listed once per position set.
    """
    counts: dict[tuple, int] = {}
    for a, x in c1.counts.items():
        for b, y in c2.counts.items():
            loops = a[0] + b[0]
            for s, w in _interleavings(a[1:], b[1:]).items():
                key = (loops, *s)
                counts[key] = counts.get(key, 0) + w * x * y
    return CatenaryData(c1.n + c2.n, c1.r + c2.r, counts)


def g_from_catenary(c: CatenaryData) -> GInvariant:
    """Sum of count * gamma(composition) over the catenary vector.

    When every count is positive, c is exactly what the solve of the result
    would return, so the result holds c and `catenary_from_g` reads it back
    unsolved.  Data with a negative count are not held: the solve then
    raises on them as it would on any vector from outside.
    """
    acc: dict[str, int] = {}
    for comp, cnt in c.counts.items():
        for key, coeff in gamma_coeffs(comp).items():
            acc[key] = acc.get(key, 0) + cnt * coeff
    g = GInvariant(c.n, c.r, acc)
    if min(c.counts.values(), default=1) > 0:
        g._held["catenary"] = c
    return g


def g_invariant(m: Matroid) -> GInvariant:
    """G-invariant of a matroid, through its catenary data."""
    return g_from_catenary(catenary(m))


def _solve_order(key: str) -> tuple:
    """Heap key of a symbol: lowest in dominance first, then ascending ones.

    The dominance height of a composition is the sum of its prefix sums,
    i.e. n plus the positions of the ones of its symbol; larger is lower in
    dominance.  Ties go in `compositions()` order, ascending one-positions.
    """
    ones = tuple(i for i, ch in enumerate(key) if ch == "1")
    return (-sum(ones), ones, key)


def catenary_from_g(g: GInvariant) -> CatenaryData:
    """Gamma coordinates of g: the data g holds, else the solve below, whose
    result g then holds.

    An invariant read from outside holds nothing, so it is always solved
    and checked here; one that `g_from_catenary` built holds its data.
    """
    return held(g, "catenary", _gamma_solve)


def _gamma_solve(g: GInvariant) -> CatenaryData:
    """Invert the gamma-basis change by back-substitution along dominance.

    The solve visits only symbols in the residual support: a heap holds the
    keys of g and every symbol a solved gamma(a) touches, lowest in
    dominance first.  Every symbol of gamma(a) other than a itself
    dominates a strictly, so it is popped after a, and the first failing
    coordinate is the one a scan of all C(n, r) compositions meets first.
    Rejects inputs whose coordinates are not nonnegative integers; such a
    vector is not the G-invariant of any matroid.
    """
    residual = dict(g.coeffs)
    heap = [_solve_order(key) for key in residual]
    heapq.heapify(heap)
    counts: dict[tuple, int] = {}
    while heap:
        key = heapq.heappop(heap)[2]
        num = residual[key]
        if num == 0:
            continue
        a = seq_to_comp(key)
        coeffs = gamma_coeffs(a)
        den = coeffs[key]
        if num % den:
            raise ExactnessError(
                f"gamma coordinate at {a} is {num}/{den}: not an integer")
        nu = num // den
        if nu < 0:
            raise ExactnessError(f"gamma coordinate at {a} is negative: {nu}")
        counts[a] = nu
        for sym, coeff in coeffs.items():
            if sym in residual:
                residual[sym] -= nu * coeff
            else:
                residual[sym] = -nu * coeff
                heapq.heappush(heap, _solve_order(sym))
    return CatenaryData(g.n, g.r, counts)


def invariant_copies(g: GInvariant, copies: int | None = 1) -> int:
    """How many matroid invariants g sums, each totalling n! orderings.

    Raises ExactnessError unless that is `copies`, or with `copies=None`
    any positive number (a size-grouped deck entry); an empty g sums none.
    """
    found, rest = divmod(g.total(), math.factorial(g.n))
    if rest or found < 1 or copies not in (None, found):
        want = ("a positive multiple of " if copies is None
                else "" if copies == 1 else f"{copies} * ") + f"{g.n}!"
        raise ExactnessError(
            f"coefficients sum to {g.total()}, not {want}: not an invariant")
    return found


def invariant_catenary(g: GInvariant, copies: int | None = 1) -> CatenaryData:
    """Catenary data of g, which must sum `copies` matroid invariants: the
    check every invariant from outside passes.  The total goes first, being
    one pass over g where the solve may touch the whole dominance up-set;
    the solve then raises unless the gamma coordinates are nonnegative ints.
    An invariant from outside holds no coordinates, so the solve always runs
    on it; one built here from its catenary data reads them back.
    """
    invariant_copies(g, copies)
    return catenary_from_g(g)


# -- brute-force oracles -------------------------------------------------------

def _shift_down(c: list[int]) -> list[int]:
    """The coefficients of p(t - 1) from those of p(t), in place.

    Pascal's rule, swept once per degree: pass i subtracts each coefficient
    from the one below it, down to degree i.  Zeros above the top nonzero
    coefficient are left out, so a constant costs nothing.
    """
    top = len(c) - 1
    while top > 0 and not c[top]:
        top -= 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] -= c[j + 1]
    return c


def _expand_shifted(grid) -> dict[tuple[int, int], int]:
    """Coefficients of x^i y^j in the sum of grid[a][b] (x-1)^a (y-1)^b over
    a rectangular grid, keyed in order of j, then i.

    One variable at a time: each row a is shifted in y, which gives the
    y^j coefficients of sum_b grid[a][b] (y-1)^b, and each y^j column of
    the result is then shifted in x.  A shift of degree d is d(d+1)/2
    subtractions and computes no binomial.
    """
    rows = [_shift_down(list(row)) for row in grid]
    terms: dict[tuple[int, int], int] = {}
    for j, col in enumerate(zip(*rows)):
        for i, v in enumerate(_shift_down(list(col))):
            if v:
                terms[i, j] = v
    return terms


def _rank_table(m: Matroid) -> list[int]:
    """Rank of every subset by the scan of the bases, not the presentation."""
    return list(map(_basis_scan(list(m.bases)), range(1 << m.n)))


def g_brute_force(m: Matroid,
                  limit: int = DEFAULT_ORACLE_LIMIT) -> GInvariant:
    """Ground-truth G-invariant: all n! orderings, counted subset by subset."""
    if m.n > limit:
        raise ValueError(f"brute force capped at n <= {limit}, got n = {m.n}")
    table = _rank_table(m)
    words: list[dict[str, int]] = [{} for _ in table]
    words[0][""] = 1
    for mask, here in enumerate(words):
        for e in elements_of(m.full & ~mask):
            up = mask | 1 << e
            ch = "1" if table[up] > table[mask] else "0"
            acc = words[up]
            for word, cnt in here.items():
                acc[word + ch] = acc.get(word + ch, 0) + cnt
    return GInvariant(m.n, m.r, words[m.full])


def tutte_brute_force(m: Matroid,
                      limit: int = DEFAULT_ORACLE_LIMIT) -> TuttePolynomial:
    """Corank-nullity sum over all 2^n subsets."""
    if m.n > limit:
        raise ValueError(f"brute force capped at n <= {limit}, got n = {m.n}")
    table = _rank_table(m)
    grid = [[0] * (m.n - m.r + 1) for _ in range(m.r + 1)]
    for x in range(1 << m.n):
        grid[m.r - table[x]][x.bit_count() - table[x]] += 1
    return TuttePolynomial(_expand_shifted(grid))


# -- specializations and closed forms -------------------------------------------

def tutte_from_g(g: GInvariant) -> TuttePolynomial:
    """Tutte polynomial via the prefix-weight specialization of each symbol.

    Each symbol contributes sum over m of
    (x-1)^(r - wt_m) (y-1)^(m - wt_m) / (m! (n-m)!) with wt_m the number of
    ones among its first m entries.  The sums run on integers scaled by n!,
    since 1 / (m! (n-m)!) = binomial(n, m) / n!; a coefficient that n! does
    not divide means g is not a matroid invariant.

    A prefix of length i + b holds exactly i ones when the i-th one of the
    symbol has at most b zeros before it and the (i+1)-th more than b - 1.
    So each symbol adds its coefficient to r one-position histograms, the
    j-th at the position of its j-th one, and one prefix sum per histogram
    over its n - r + 1 possible positions gives, for every (i, b), the
    coefficient mass whose (i + b)-prefixes hold i ones: |g| r steps for
    the symbols, (r + 1)(n - r + 1) for the prefix lengths.
    """
    n, r = g.n, g.r
    hist = [[0] * n for _ in range(r)]
    for key, c in g.coeffs.items():
        q = -1
        for row in hist:
            q = key.index("1", q + 1)
            row[q] += c
    # ones[j][t]: the mass whose j-th one has t zeros before it, for
    # j = 0..r+1; every symbol has its 0-th one at t = 0 and no (r+1)-th
    width = n - r + 1
    ones = [[g.total()] + [0] * (width - 1),
            *(row[j:j + width] for j, row in enumerate(hist)), [0] * width]
    binom = [math.comb(n, m) for m in range(n + 1)]
    grid = []
    for i in range(r, -1, -1):
        # the mass whose (i + b)-prefixes hold i ones, for b = 0..n-r
        steps = map(operator.sub, ones[i], [0, *ones[i + 1]])
        mass = itertools.accumulate(steps)
        grid.append(list(map(operator.mul, binom[i:i + width], mass)))
    terms = _expand_shifted(grid)
    nf = math.factorial(n)
    out = {}
    for key, val in terms.items():
        if val % nf:
            d = math.gcd(val, nf)
            raise ExactnessError(f"Tutte coefficient at {key} is "
                                 f"{val // d}/{nf // d}: not an integer")
        out[key] = val // nf
    return TuttePolynomial(out)


def basis_count(c: CatenaryData) -> int:
    """Number of bases: (1/r!) sum of count * a_1 a_2 ... a_r."""
    total = 0
    for comp, cnt in c.counts.items():
        total += cnt * math.prod(comp[1:])
    fact = math.factorial(c.r)
    if total % fact:
        raise ExactnessError(
            f"ordered-basis total {total} is not divisible by {c.r}!")
    return total // fact


def pmd_catenary(alphas) -> CatenaryData:
    """Catenary data of a perfect matroid design with flat sizes alphas.

    All flags share the composition of consecutive differences; their count
    is the product over i of (alpha_r - alpha_i) / (alpha_{i+1} - alpha_i).
    """
    alphas = [int(a) for a in alphas]
    steps = [b - a for a, b in itertools.pairwise(alphas)]
    if min(alphas, default=-1) < 0 or min(steps, default=1) < 1:
        raise ValueError(f"flat sizes must strictly increase: {alphas}")
    num = math.prod(alphas[-1] - a for a in alphas[:-1])
    den = math.prod(steps)
    if num % den:
        d = math.gcd(num, den)
        raise ExactnessError(
            f"design parameters give flag count {num // d}/{den // d}")
    return CatenaryData(alphas[-1], len(steps), {(alphas[0], *steps): num // den})


def paving_catenary(n: int, r: int, copoint_counts: Mapping[int, int]) -> CatenaryData:
    """Catenary data of a paving matroid from its copoint size census.

    A size-m copoint contributes f_{r-1}(m) * (m)_{r-2} flags of composition
    (0, 1, ..., 1, m-r+2, n-m).
    """
    if r < 2:
        raise ValueError("paving census formula needs rank >= 2")
    counts: dict[tuple, int] = {}
    for m, f in copoint_counts.items():
        m, f = int(m), int(f)
        if f == 0:
            continue
        if not r - 1 <= m < n:
            raise ValueError(f"copoint size {m} impossible for (n,r)=({n},{r})")
        comp = (0,) + (1,) * (r - 2) + (m - r + 2, n - m)
        counts[comp] = counts.get(comp, 0) + f * math.perm(m, r - 2)
    return CatenaryData(n, r, counts)
