"""Root-system combinatorics: Cartan data, weights, dominance, weight
enumeration, and an independent Weyl-character oracle.

Weights are plain integer tuples in fundamental-weight coordinates, so the
pairing of a weight with a simple coroot is an O(1) coordinate read-off.
Dominance is integer root-lattice arithmetic: with den the least positive
integer making den * C^-1 integral (``RootSystem.lattice``), mu <= lam iff
every entry of den * C^-1 (lam - mu) is nonnegative and divisible by den.
The public root coordinates, heights and invariant form return ``Fraction``.
The Freudenthal oracle reads them only to build two integer tables once per
root system, and its loop runs on integers: the positive roots with their
pairing functionals x -> (x, gamma) = sum_j x_j * d_j * c_j(gamma), and the
Gram matrix of the form on the fundamental weights scaled by the lcm of its
denominators.  Each multiplicity is an exact ``divmod``.

One Gauss-Jordan pass over ``Fraction`` validates and inverts the Cartan
matrix: it is of finite type exactly when every pivot is positive.  Ranks
above ``MAX_RANK`` are refused before any matrix is built.

Convention: ``cartan[i][j]`` is the pairing of the simple root alpha_j with
the simple coroot of alpha_i, so the fundamental coordinates of alpha_j form
the j-th *column* of the matrix.  The symmetrizers d satisfy
d[i] * cartan[i][j] == d[j] * cartan[j][i] with entries in {1, 2, 3} and at
least one 1 per irreducible component; this pins d[i] to half the squared
length of alpha_i, which is what the quantum binomial subscripts require.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

Weight = tuple[int, ...]


class RootSystemError(ValueError):
    pass


def _chain(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _label_cartan(family: str, n: int) -> list[list[int]]:
    if family == "A" and n >= 1:
        return _chain(n)
    if family == "B" and n >= 2:
        a = _chain(n)
        a[n - 1][n - 2] = -2
        return a
    if family == "C" and n >= 2:
        a = _chain(n)
        a[n - 2][n - 1] = -2
        return a
    if family == "D" and n >= 3:
        a = _chain(n)
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        return a
    if family == "E" and n in (6, 7, 8):
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        for i, j in edges:
            a[i][j] = a[j][i] = -1
        return a
    if family == "F" and n == 4:
        a = _chain(4)
        a[2][1] = -2
        a[1][2] = -1
        return a
    if family == "G" and n == 2:
        return [[2, -3], [-1, 2]]
    raise RootSystemError(f"unsupported type {family}{n}")


def _symmetrizer(cartan: list[list[int]]) -> tuple[int, ...]:
    """Minimal positive-integer d with d[i]*A[i][j] symmetric, per component."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        comp = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or cartan[i][j] == 0:
                    continue
                want = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                    comp.append(j)
                elif d[j] != want:
                    raise RootSystemError("Cartan matrix is not symmetrizable")
        scale = min(d[j] for j in comp)
        for j in comp:
            d[j] = d[j] / scale
    out = []
    for x in d:
        if x.denominator != 1 or x.numerator not in (1, 2, 3):
            raise RootSystemError(f"symmetrizer entry {x} outside {{1,2,3}}")
        out.append(x.numerator)
    return tuple(out)


def _finite_type_inverse(cartan: list[list[int]]) -> list[list[Fraction]]:
    """C^-1 by one Gauss-Jordan pass with no row exchanges, refusing C unless
    it is of finite type.  The k-th pivot is det C_k / det C_(k-1) for the
    leading blocks C_k, and det (DC)_k has its sign for the positive diagonal
    symmetrizer D: DC is positive definite (finite type) exactly when every
    pivot is positive, and C is then invertible."""
    n = len(cartan)
    m = [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(cartan)]
    for col in range(n):
        piv = m[col][col]
        if piv <= 0:
            raise RootSystemError("Cartan matrix is not of finite type")
        m[col] = [c / piv for c in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [c - f * p for c, p in zip(m[r], m[col])]
    return [row[n:] for row in m]


@dataclass(frozen=True)
class RootSystem:
    """Validated Cartan datum of finite type."""

    label: str
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    _inv_cartan: tuple[tuple[Fraction, ...], ...] = field(repr=False, compare=False, default=())

    @property
    def rank(self) -> int:
        return len(self.cartan)

    # -- weight arithmetic -------------------------------------------------

    @cached_property
    def _simple_roots(self) -> tuple[Weight, ...]:
        return tuple(tuple(row[i] for row in self.cartan) for i in range(self.rank))

    def simple_root(self, i: int) -> Weight:
        """Fundamental coordinates of alpha_i (the i-th column)."""
        return self._simple_roots[i]

    def add_root(self, mu: Weight, i: int, n: int = 1) -> Weight:
        return tuple(m + n * r for m, r in zip(mu, self._simple_roots[i]))

    def rho(self) -> Weight:
        return (1,) * self.rank

    def root_coords(self, mu: Weight) -> tuple[Fraction, ...]:
        """Coefficients c with mu = sum c_j alpha_j."""
        return tuple(
            sum(self._inv_cartan[j][r] * mu[r] for r in range(self.rank))
            for j in range(self.rank)
        )

    @cached_property
    def lattice(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, den * C^-1): the least positive den with den * C^-1 integral,
        and that integer matrix, so den * root_coords(mu) is integral."""
        den = math.lcm(*(c.denominator for row in self._inv_cartan for c in row))
        return den, tuple(tuple(int(c * den) for c in row) for row in self._inv_cartan)

    def lattice_coords(self, mu: Weight) -> tuple[int, ...]:
        """den * root_coords(mu) as integers, with den = self.lattice[0]."""
        return tuple(sum(c * m for c, m in zip(row, mu)) for row in self.lattice[1])

    def lattice_leq(self, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        """mu <= lam for x = lattice_coords(mu) and y = lattice_coords(lam):
        every coordinate of y - x is nonnegative and divisible by den."""
        den = self.lattice[0]
        return all(b >= a and (b - a) % den == 0 for a, b in zip(x, y))

    def height(self, mu: Weight) -> Fraction:
        return sum(self.root_coords(mu), Fraction(0))

    def inner(self, x: Weight, y: Weight) -> Fraction:
        """The W-invariant bilinear form in fundamental coordinates."""
        c = self.root_coords(y)
        return sum(c[j] * self.d[j] * x[j] for j in range(self.rank))

    def reflect(self, mu: Weight, i: int) -> Weight:
        return self.add_root(mu, i, -mu[i])

    def is_dominant(self, mu: Weight) -> bool:
        return all(c >= 0 for c in mu)

    def dominant_conjugate(self, mu: Weight) -> Weight:
        """Reflect in the first simple root with a negative coordinate until
        none is left."""
        while True:
            for i, c in enumerate(mu):
                if c < 0:
                    break
            else:
                return mu
            mu = self.reflect(mu, i)

    def check_weight(self, mu: Weight) -> None:
        if len(mu) != self.rank:
            raise RootSystemError(f"weight {mu} has wrong length for rank {self.rank}")

    # -- positive roots ------------------------------------------------------

    @cached_property
    def _positive_roots(self) -> tuple[tuple[Weight, tuple[int, ...]], ...]:
        """Each positive root gamma, by increasing height, with the integer
        functional x -> (x, gamma) = sum_j x_j * d_j * c_j(gamma); the root
        coordinates c(gamma) of a root are integers."""
        simple = self._simple_roots
        heights = {r: 1 for r in simple}
        level = list(simple)
        h = 1
        while level:
            h += 1
            nxt = []
            for gamma in level:
                for i, alpha in enumerate(simple):
                    cand = tuple(g + a for g, a in zip(gamma, alpha))
                    if cand in heights:
                        continue
                    # Length p of the alpha-string below gamma; gamma + alpha
                    # is a root iff p - <gamma, alpha^vee> > 0.
                    p = 0
                    down = tuple(g - a for g, a in zip(gamma, alpha))
                    while down in heights:
                        p += 1
                        down = tuple(g - a for g, a in zip(down, alpha))
                    if p - gamma[i] > 0:
                        heights[cand] = h
                        nxt.append(cand)
            level = nxt
        return tuple(
            (gamma, tuple(int(c) * d for c, d in zip(self.root_coords(gamma), self.d)))
            for gamma in sorted(heights, key=lambda r: (heights[r], r)))

    def positive_roots(self) -> list[Weight]:
        """All positive roots in fundamental coordinates, by increasing height."""
        return [gamma for gamma, _ in self._positive_roots]

    @cached_property
    def _gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, G): the least positive den with den * (omega_i, omega_j)
        integral for all fundamental weights, and G = that integer matrix,
        so den * (x, y) = x^T G y for weights x and y."""
        omega = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        form = [[self.inner(x, y) for y in omega] for x in omega]
        den = math.lcm(*(c.denominator for row in form for c in row))
        return den, tuple(tuple(int(c * den) for c in row) for row in form)

    def __str__(self) -> str:
        return self.label


# The largest rank root_system constructs.  The Cartan matrix is inverted
# over Fraction in O(n^3), which takes seconds from rank 100 on (A150: about
# 10 s), and a label builds its n x n matrix first; every build this package
# runs has rank <= 8.
MAX_RANK = 64


def _check_rank(n: int) -> None:
    if n > MAX_RANK:
        raise RootSystemError(f"rank {n} exceeds the largest supported rank {MAX_RANK}")


def _validate(cartan: list[list[int]]) -> None:
    n = len(cartan)
    for i, row in enumerate(cartan):
        if len(row) != n:
            raise RootSystemError("Cartan matrix must be square")
        if row[i] != 2:
            raise RootSystemError("Cartan diagonal entries must equal 2")
        for j, a in enumerate(row):
            if i != j and a > 0:
                raise RootSystemError("Cartan off-diagonal entries must be <= 0")
            if i != j and (a == 0) != (cartan[j][i] == 0):
                raise RootSystemError("Cartan zero pattern must be symmetric")


def root_system(spec: str | list[list[int]]) -> RootSystem:
    """Build a validated root system from a label like "B3" or an explicit
    Cartan matrix of finite type.  A label's rank is read in ASCII digits
    and the system carries the canonical label ("A01" gives "A1"); a matrix
    gives the label "custom"."""
    if isinstance(spec, str):
        m = re.fullmatch(r"([A-G])([0-9]+)", spec.strip())
        if not m:
            # Quoted as ring.parse_ring quotes a descriptor: at most 40
            # characters, then the length.
            shown = repr(spec) if len(spec) <= 40 else f"{spec[:40]!r}... ({len(spec)} characters)"
            raise RootSystemError(f"bad root system label {shown}")
        family, digits = m.group(1), m.group(2).lstrip("0") or "0"
        if len(digits) > len(str(MAX_RANK)):
            raise RootSystemError(f"rank of {len(digits)} digits exceeds the "
                                  f"largest supported rank {MAX_RANK}")
        n = int(digits)
        _check_rank(n)
        cartan = _label_cartan(family, n)
        label = f"{family}{n}"
    else:
        _check_rank(len(spec))
        cartan = [list(map(int, row)) for row in spec]
        label = "custom"
    _validate(cartan)
    d = _symmetrizer(cartan)
    inv = _finite_type_inverse(cartan)
    return RootSystem(
        label=label,
        cartan=tuple(tuple(r) for r in cartan),
        d=d,
        _inv_cartan=tuple(tuple(r) for r in inv),
    )


def pairing(rs: RootSystem, mu: Weight, alpha: int) -> int:
    """The pairing of mu with the alpha-th simple coroot."""
    rs.check_weight(mu)
    return mu[alpha]


def dominance_leq(rs: RootSystem, mu: Weight, lam: Weight) -> bool:
    """True iff lam - mu is a nonnegative integer combination of simple roots."""
    rs.check_weight(mu)
    rs.check_weight(lam)
    return rs.lattice_leq(rs.lattice_coords(mu), rs.lattice_coords(lam))


def weights_below(
    rs: RootSystem,
    lam: Weight,
    prune_hull: bool = True,
    height_bound: int | None = None,
) -> list[Weight]:
    """All weights mu <= lam (hull-pruned by default), in processing order.

    With pruning, mu is kept iff its dominant conjugate is <= lam; this is
    exactly the convex hull of the Weyl orbit of lam intersected with
    lam + (root lattice).  Output is ordered by increasing height of
    lam - mu with lexicographic tie-break, a linear extension of reverse
    dominance: every mu + n*alpha precedes mu.
    """
    rs.check_weight(lam)
    if not prune_hull and height_bound is None:
        raise RootSystemError("an explicit height bound is required when not pruning")
    if height_bound is not None and height_bound < 0:
        raise RootSystemError(f"height bound must be nonnegative, got {height_bound}")

    top = rs.lattice_coords(lam)
    out = [lam]
    level = [lam]
    h = 0
    while level:
        h += 1
        if height_bound is not None and h > height_bound:
            break
        # Each candidate is tested once per level, by the first parent that
        # reaches it.  With mu in the hull and <mu, alpha_i^vee> > 0,
        # mu - alpha_i lies between mu and s_i mu, so it is in the hull too.
        seen = set()
        nxt = []
        for mu in level:
            for i, alpha in enumerate(rs._simple_roots):
                cand = tuple(m - a for m, a in zip(mu, alpha))
                if cand in seen:
                    continue
                seen.add(cand)
                if not prune_hull or mu[i] > 0 or rs.lattice_leq(
                        rs.lattice_coords(rs.dominant_conjugate(cand)), top):
                    nxt.append(cand)
        nxt.sort()
        out.extend(nxt)
        level = nxt
    return out


Character = dict[Weight, int]


def weyl_character(rs: RootSystem, lam: Weight) -> Character:
    """Multiplicities of the irreducible characteristic-zero character with
    highest weight lam, via the Freudenthal recursion.

    This is the independent oracle used to accept the constructed modules;
    it shares no code with the extension engine.
    """
    rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise RootSystemError(f"{lam} is not dominant")
    rho = rs.rho()
    den, gram = rs._gram

    def norm(x: Weight) -> int:
        """den * (x + rho, x + rho), an integer."""
        y = [a + b for a, b in zip(x, rho)]
        return sum(a * sum(g * b for g, b in zip(row, y)) for a, row in zip(y, gram))

    order = weights_below(rs, lam, prune_hull=True)
    # A weight x is keyed by the integer sum_i x_i * (2 * bound + 1)**i.
    # Every weight looked up below is a listed weight plus a positive root,
    # so its coordinates lie in [-bound, bound]: they are the balanced digits
    # of its key, which is thus unique, and a step along gamma adds gamma's key.
    bound = (max(abs(c) for x in order for c in x)
             + max(abs(c) for gamma, _ in rs._positive_roots for c in gamma))
    powers = [(2 * bound + 1) ** i for i in range(rs.rank)]

    def key(x: Weight) -> int:
        return sum(c * p for c, p in zip(x, powers))

    # (key of gamma, functional x -> (x, gamma), (gamma, gamma)) per positive root.
    pos = [(key(gamma), pair, sum(g * c for g, c in zip(gamma, pair)))
           for gamma, pair in rs._positive_roots]
    norm_top = norm(lam)
    mult = {key(lam): 1}
    out = [1]
    for mu in order[1:]:
        mu_key = key(mu)
        acc = 0
        for gamma_key, pair, gg in pos:
            up = mu_key + gamma_key
            m_up = mult.get(up)
            # None: outside the stored hull, so multiplicity zero, and going
            # further along gamma stays outside.
            if m_up is None:
                continue
            inner_up = sum(x * c for x, c in zip(mu, pair)) + gg  # (mu + k gamma, gamma)
            while m_up is not None:
                acc += m_up * inner_up
                inner_up += gg
                up += gamma_key
                m_up = mult.get(up)
        denom = norm_top - norm(mu)
        if denom == 0:
            raise RootSystemError("Freudenthal denominator vanished")
        # m(mu) = 2 * acc / (||lam + rho||^2 - ||mu + rho||^2), exactly.
        m, rem = divmod(2 * den * acc, denom)
        if rem or m < 0:
            raise RootSystemError(
                f"non-integral multiplicity {Fraction(2 * den * acc, denom)} at {mu}")
        mult[mu_key] = m
        out.append(m)
    return {mu: m for mu, m in zip(order, out) if m > 0}


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Dimension by the product formula; a second independent cross-check."""
    rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise RootSystemError(f"{lam} is not dominant")
    rho = rs.rho()
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    dim = Fraction(1)
    for gamma in rs.positive_roots():
        dim *= Fraction(rs.inner(lam_rho, gamma), rs.inner(rho, gamma))
    if dim.denominator != 1:
        raise RootSystemError("non-integral Weyl dimension")
    return int(dim)
