"""Quasi-median structures: a finite metric with a ternary operation
whose defects are measured rather than assumed away.

The key measured parameters are K and H0 (one-step displacement of the
operation is K-Lipschitz up to H0), gamma (worst associativity-style
defect over 5-tuples) and lam (how far mu(x,y,z) sits outside the
tau-interval of x and y).  From these the derived scales are

  L1(r) = (K+1)*r + K*lam + gamma + 2*H0
  L2(r) = (K+2)*r + H0
  L3(r, t) = 3**d * K**d * r * t + r

and the interval calculus (interval absorption, deep points, median
projections) is checked against them on concrete instances.

The metric is one table of integer numerators ``nums`` over one
denominator ``den``, the lcm of the entries' denominators: int32 when
every numerator and den fit, as an integral metric's must, else Python
ints in an object array.  Each sweep is one integer array expression
that makes a ``Fraction`` only of its result, and a threshold q is
compared as nums <= floor(q * den), exact for integer nums.  H0 and
gamma are exhaustive on integral metrics up to 40 points and sampled
otherwise: exact constants would change what reports on rational
metrics print.  A sampled sweep keeps a running maximum over blocks of
draws from its one seeded Generator, and lam one over blocks of
triples: their arrays grow neither with the budget nor with n^3.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube_complex import crossing_rank, rank as graph_rank
from .errors import (
    BudgetExceeded,
    ConditionViolation,
    NotCoarseMedian,
    NotFound,
    PreconditionViolation,
)
from .median_core import MedianGraph, VertexSet, grid, majority_closure

INSTANCE_LIMIT = 160
K_GRID = [Fraction(4 + i, 4) for i in range(29)]  # 1, 1.25, ..., 8
EXHAUSTIVE_POINTS = 40
CLOSURE_CAP = 512
# draws per block of the sampled sweeps, and entries per block of lam
_DRAWS = 1 << 14


def _refuse_above_limit(n: int) -> None:
    """The refusal above INSTANCE_LIMIT points, from a point count known
    before any table is built.  A count of 2^64 or more stands for any
    larger one."""
    if n > INSTANCE_LIMIT:
        raise BudgetExceeded(
            f"instance above {INSTANCE_LIMIT} points", n=n if n < 1 << 64 else "2^64 or more"
        )


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class CoarseParams:
    K: Fraction
    H0: Fraction
    gamma: Fraction
    lam: Fraction


@dataclass(frozen=True)
class LConstants:
    r: Fraction
    t: Fraction
    L1: Fraction
    L2: Fraction
    L3: Fraction


def l_constants(params: CoarseParams, r, t, d: int) -> LConstants:
    r, t = Fraction(r), Fraction(t)
    k = params.K
    return LConstants(
        r=r,
        t=t,
        L1=(k + 1) * r + k * params.lam + params.gamma + 2 * params.H0,
        L2=(k + 2) * r + params.H0,
        L3=(3 ** d) * (k ** d) * r * t + r,
    )


def _wide(nums: np.ndarray) -> np.ndarray:
    """int32 numerators as int64, whose sums cannot wrap around."""
    return nums.astype(np.promote_types(nums.dtype, np.int64))


class CoarseMedianInstance:
    """Points 0..n-1 with an exact metric table and a ternary operation
    table.  The metric is ``nums / den`` (see the module docstring);
    ``dist_int`` is ``nums`` when ``den`` is 1, else None.  Metric
    axioms are validated on load; the operation's permutation
    invariance and absorption of repeated arguments are measured and
    recorded as m1_defect / m2_defect."""

    def __init__(self, dist, mu: np.ndarray, d: int = 2,
                 ambient: MedianGraph | None = None,
                 point_to_ambient: list[int] | None = None,
                 round_to_point: np.ndarray | None = None):
        if int(d) < 0:
            # l_constants takes 3 ** d, which is a float below 0
            raise ValueError(f"rank {d} is below 0")
        self.mu = np.asarray(mu, dtype=np.int32)
        self.n = self.mu.shape[0]
        _refuse_above_limit(self.n)
        if self.mu.shape != (self.n, self.n, self.n):
            raise ValueError("operation table must be cubic")
        if self.mu.min() < 0 or self.mu.max() >= self.n:
            raise ValueError("operation value out of range")
        self.d = int(d)
        table = np.asarray(dist)
        if table.shape != (self.n, self.n):
            raise ValueError("metric table shape mismatch")
        self.den = 1
        if table.dtype.kind not in "iu":  # Fractions, or what Fraction() reads
            fracs = [Fraction(v) for v in table.ravel().tolist()]
            self.den = math.lcm(*(f.denominator for f in fracs))
            table = np.array([f.numerator * (self.den // f.denominator) for f in fracs],
                             dtype=object).reshape(table.shape)
        far = (table <= -2**31) | (table >= 2**31)
        if self.den == 1 and far.any():
            i, j = np.argwhere(far)[0].tolist()
            raise ValueError(f"distance d({i},{j}) = {table[i, j]} is outside the int32 range")
        self.nums = table.astype(object if far.any() or self.den >= 2**31 else np.int32)
        self.dist_int: np.ndarray | None = self.nums if self.den == 1 else None
        self._validate_metric()
        self.ambient = ambient
        self.point_to_ambient = point_to_ambient
        self.round_to_point = round_to_point
        self.m1_defect, self.m2_defect = self._operation_defects()
        self.params: CoarseParams | None = None

    def check_points(self, **points: int) -> None:
        """ValueError naming the first id outside 0..n-1, which a numpy
        index would wrap around or refuse."""
        for name, p in points.items():
            if not 0 <= p < self.n:
                raise ValueError(f"point {name} = {p} out of range 0..{self.n - 1}")

    # -- metric ------------------------------------------------------

    def rho(self, i: int, j: int):
        self.check_points(i=i, j=j)
        v = int(self.nums[i, j])
        return v if self.den == 1 else Fraction(v, self.den)

    def threshold(self, q) -> int:
        """floor(q * den): rho(i, j) <= q exactly when
        nums[i, j] <= threshold(q)."""
        q = Fraction(q)
        return q.numerator * self.den // q.denominator

    def _worst(self, p, q) -> Fraction:
        """The largest rho(p[i], q[i]) over paired point arrays; 0 when
        they are empty."""
        flat = np.asarray(p, dtype=np.intp) * self.n + q
        return Fraction(int(self.nums.ravel()[flat].max(initial=0)), self.den)

    def _offsets(self, a: int, b: int) -> np.ndarray:
        """nums[mu(a, b, x), x] for every point x."""
        return self.nums[self.mu[a, b], np.arange(self.n)]

    def _validate_metric(self) -> None:
        n = self.n
        d = _wide(self.nums)
        if np.any(np.diag(d) != 0) or np.any(d != d.T):
            raise ValueError("metric is not symmetric with zero diagonal")
        if np.any((d == 0) & ~np.eye(n, dtype=bool)):
            raise ValueError("distinct points at distance zero")
        step = max(1, 2**17 // (n * n))  # rows i per block: d(i,j) + d(j,k) >= d(i,k)
        for lo in range(0, n, step):
            if np.any(d[lo:lo + step, :, None] + d < d[lo:lo + step, None, :]):
                raise ValueError("triangle inequality fails")  # also when some d < 0

    # -- operation ---------------------------------------------------

    def med(self, i: int, j: int, k: int) -> int:
        self.check_points(i=i, j=j, k=k)
        return int(self.mu[i, j, k])

    def _operation_defects(self):
        tab = self.mu
        m1 = Fraction(0)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            other = tab.transpose(perm)
            mism = tab != other
            m1 = max(m1, self._worst(tab[mism], other[mism]))
        idx = np.arange(self.n)
        diag = tab[idx[:, None], idx[:, None], idx[None, :]]  # diag[a, b] = mu(a, a, b)
        mism = diag != idx[:, None]
        return m1, self._worst(diag[mism], np.nonzero(mism)[0])

    def points(self) -> range:
        return range(self.n)


def coarse_interval(inst: CoarseMedianInstance, a: int, b: int, tau) -> frozenset[int]:
    """Points x with rho(mu(a,b,x), x) <= tau."""
    inst.check_points(a=a, b=b)
    return frozenset(np.flatnonzero(inst._offsets(a, b) <= inst.threshold(tau)).tolist())


# -- parameter estimation --------------------------------------------


def _defect_exhaustive(inst: CoarseMedianInstance, k: Fraction) -> Fraction:
    """max over all sextuples of displacement(mu) - K * displacement(args);
    integer metric only, scaled to integers by K's denominator."""
    d = inst.dist_int.astype(np.int64)
    n = inst.n
    flat_mu = inst.mu.reshape(n, n * n)
    num, den = k.numerator, k.denominator
    scaled_pairs = num * (d[:, None, :, None] + d[None, :, None, :]).reshape(n * n, n * n)
    worst = None
    for a in range(n):
        for a2 in range(a, n):  # symmetric in the two triples
            lhs = den * d[flat_mu[a][:, None], flat_mu[a2][None, :]]
            gap = int((lhs - scaled_pairs).max()) - num * int(d[a, a2])
            if worst is None or gap > worst:
                worst = gap
    return Fraction(worst, den)


def _slot_envelope(inst: CoarseMedianInstance) -> np.ndarray:
    """env[a, a2]: the largest d(mu(t), mu(t2)) over triples t, t2 that
    agree outside one argument slot, where t holds a and t2 holds a2,
    over all three slots; integer metric only, O(n^4)."""
    n = inst.n
    d = inst.dist_int.ravel()
    env = np.zeros((n, n), dtype=np.int64)
    for slot_first in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        rows = inst.mu.transpose(slot_first).reshape(n, n * n).astype(np.intp)
        for a in range(n):
            np.maximum(env[a], d[rows[a] * n + rows].max(axis=1), out=env[a])
    return env


def _h0_exhaustive(inst: CoarseMedianInstance, k: Fraction,
                   env: np.ndarray) -> Fraction:
    """H0 at multiplier k, exact.  The single-argument defect
    D1 = max(env - k * d) is the sextuple defect D6 restricted to triples
    that differ in one slot, and walking from one triple to the other a
    slot at a time gives D6 <= 3 * D1 by the triangle inequality; both
    are >= 0 (take equal triples).  So D1 = 0 proves H0 = D6 = 0, and
    only D1 > 0 needs the O(n^6) sweep."""
    d1 = k.denominator * env - k.numerator * inst.dist_int.astype(np.int64)
    if int(d1.max()) == 0:
        return Fraction(0)
    return _defect_exhaustive(inst, k)


def _draw_blocks(rng: np.random.Generator, n: int, budget: int, width: int):
    """``budget`` draws of ``width`` points in 0..n-1 as (width, k)
    arrays, k <= _DRAWS: the rows of one (budget, width) draw."""
    for lo in range(0, budget, _DRAWS):
        yield np.ascontiguousarray(rng.integers(0, n, size=(min(_DRAWS, budget - lo), width)).T)


def _sextuple_sample(inst: CoarseMedianInstance, budget: int, seed: int):
    """Displacement numerators (args, mu) of a seeded sextuple sample,
    a block of draws at a time.  Each draw reads the tables through one
    flat index per lookup."""
    n = inst.n
    mu = inst.mu.ravel()
    d = _wide(inst.nums).ravel()
    for x in _draw_blocks(np.random.default_rng(seed), n, budget, 6):
        left = mu[(x[0] * n + x[1]) * n + x[2]].astype(np.intp)
        right = mu[(x[3] * n + x[4]) * n + x[5]]
        rhs = d[x[0] * n + x[3]] + d[x[1] * n + x[4]] + d[x[2] * n + x[5]]
        yield d[left * n + right], rhs


def _h0_sampled(inst: CoarseMedianInstance, k: Fraction, budget: int, seed: int) -> Fraction:
    """max displacement(mu) - k * displacement(args) over the sample."""
    gap = max(int((k.denominator * lhs - k.numerator * rhs).max())
              for lhs, rhs in _sextuple_sample(inst, budget, seed))
    return Fraction(gap, k.denominator * inst.den)


def _gamma_exhaustive(inst: CoarseMedianInstance) -> Fraction:
    """max d(mu(x,y,mu(z,v,w)), mu(mu(x,y,z), mu(x,y,v), w)) over all
    5-tuples; integer metric only.  With a symmetric table (m1_defect
    is 0, since distinct points are at positive distance) the defect is
    unchanged by x <-> y and by z <-> v, so only x <= y and z <= v are
    visited: O(n^5 / 4), against O(n^5) for an asymmetric table."""
    n = inst.n
    d = inst.dist_int.ravel()
    mu = inst.mu.astype(np.intp)
    by_pair = mu.reshape(n * n, n)  # by_pair[p * n + q] = mu(p, q, .)
    if inst.m1_defect == 0:
        first, second = np.triu_indices(n)
    else:
        first, second = np.indices((n, n)).reshape(2, -1)
    inner = by_pair[first * n + second]  # inner[zv, w] = mu(z, v, w)
    worst = 0
    for x, y in zip(first.tolist(), second.tolist()):
        xy = mu[x, y]  # xy[z] = mu(x, y, z)
        lhs = (xy * n)[inner]  # n * mu(x, y, mu(z, v, w))
        rhs = by_pair[xy[first] * n + xy[second]]  # mu(mu(x,y,z), mu(x,y,v), w)
        worst = max(worst, int(d[lhs + rhs].max()))
    return Fraction(worst)


def _gamma_sampled(inst: CoarseMedianInstance, budget: int, seed: int) -> Fraction:
    n = inst.n
    mu = inst.mu.ravel()
    worst = Fraction(0)
    for x, y, z, v, w in _draw_blocks(np.random.default_rng(seed ^ 0x5EED), n, budget, 5):
        xy = (x * n + y) * n  # mu(x, y, c) = mu[xy + c]
        lhs = mu[xy + mu[(z * n + v) * n + w]]
        rhs = mu[(mu[xy + z].astype(np.intp) * n + mu[xy + v]) * n + w]
        worst = max(worst, inst._worst(lhs, rhs))
    return worst


def estimate_params(inst: CoarseMedianInstance, budget: int = 200_000,
                    seed: int = 0, h0_cap=None) -> CoarseParams:
    """Fit (K, H0) lexicographically over the K grid (smallest K first,
    then its smallest H0), measure gamma over 5-tuples and lam over
    triples.  Sweeps are exhaustive on integral metrics up to 40
    points, sampled otherwise.
    With an H0 cap, K values whose fitted H0 exceeds the cap are
    rejected; if none fits, NotCoarseMedian."""
    exhaustive = inst.n <= EXHAUSTIVE_POINTS and inst.dist_int is not None
    if exhaustive:
        gamma = _gamma_exhaustive(inst)
        env = _slot_envelope(inst)
    else:
        gamma = _gamma_sampled(inst, budget, seed)
    fit = None
    for k in K_GRID:  # a sampled H0 draws its sample again for each k
        h0 = _h0_exhaustive(inst, k, env) if exhaustive else _h0_sampled(inst, k, budget, seed)
        h0 = max(h0, Fraction(0))
        if h0_cap is None or h0 <= Fraction(h0_cap):
            fit = (k, h0)
            break
    if fit is None:
        raise NotCoarseMedian(
            f"no multiplier below {K_GRID[-1]} fits within the cap",
            cap=str(h0_cap),
        )
    n = inst.n
    mu, by_pair = inst.mu.ravel(), inst.mu.reshape(n * n, n)
    lam = Fraction(0)
    step = max(1, _DRAWS // n)  # pairs (x, y) per block
    for lo in range(0, n * n, step):
        xy = np.arange(lo, min(n * n, lo + step))[:, None] * n  # mu(x, y, c) = mu[xy + c]
        lam = max(lam, inst._worst(mu[xy + by_pair[lo:lo + step]], by_pair[lo:lo + step]))
    params = CoarseParams(K=fit[0], H0=fit[1], gamma=gamma, lam=lam)
    inst.params = params
    return params


def _params(inst: CoarseMedianInstance) -> CoarseParams:
    if inst.params is None:
        estimate_params(inst)
    return inst.params


# -- interval calculus checks ----------------------------------------


def check_lemma_6_2(inst: CoarseMedianInstance, a: int, b: int, x: int, r,
                    cs: LConstants | None = None):
    """With x in the lam-interval of (a, b): every point of the
    r-interval of (a, x) must lie in the L1(r)-interval of (a, b).
    ``cs`` may pass in l_constants(params, r, 1, d).
    Returns (True, None) or (False, witness), the first such point."""
    inst.check_points(a=a, b=b, x=x)
    p = _params(inst)
    if inst.rho(inst.med(a, b, x), x) > p.lam:
        raise PreconditionViolation(
            f"{x} is not lam-between {a} and {b}", a=a, b=b, x=x,
        )
    l1 = (cs or l_constants(p, r, 1, inst.d)).L1
    outside = (inst._offsets(a, x) <= inst.threshold(r)) \
        & (inst._offsets(a, b) > inst.threshold(l1))
    if outside.any():
        return False, int(outside.argmax())
    return True, None


def find_deep_point(inst: CoarseMedianInstance, a: int, b: int, r, t, kappa):
    """First point h (ordered by distance from a, then id) that sits
    L1(r)-between a and b within distance L3(r,t) of a and absorbs the
    whole rt-ball slice: every x with rho(a,x) <= r*t in the
    kappa-interval of (a,b) must be L2(r)-between a and h.  Returns the
    point or None; absence at one scale is a result, not an error."""
    inst.check_points(a=a, b=b)
    if Fraction(r) <= 0 or Fraction(t) <= 0:
        return None  # degenerate scale, below any workable r
    p = _params(inst)
    cs = l_constants(p, r, t, inst.d)
    from_a, off = inst.nums[a], inst._offsets(a, b)
    cut = np.flatnonzero(
        (from_a <= inst.threshold(Fraction(r) * Fraction(t)))
        & (off <= inst.threshold(kappa))
    )
    candidates = np.flatnonzero(
        (off <= inst.threshold(cs.L1)) & (from_a <= inst.threshold(cs.L3))
    )
    candidates = candidates[np.argsort(from_a[candidates], kind="stable")]
    # absorbs[i]: rho(mu(a, h, x), x) <= L2 for h = candidates[i] and every x in the cut
    absorbs = (inst.nums[inst.mu[a][np.ix_(candidates, cut)], cut]
               <= inst.threshold(cs.L2)).all(axis=1)
    return int(candidates[absorbs.argmax()]) if absorbs.any() else None


def check_lemma_6_5(inst: CoarseMedianInstance, a: int, b: int, h: int, m: int, r,
                    cs: LConstants | None = None):
    """With h L1(r)-between (a,b) and m L2(r)-between (a,h): projecting
    m back toward b through h moves it at most
    K*(L1+L2) + 2*H0 + gamma away from h.  ``cs`` may pass in
    l_constants(params, r, 1, d).  Returns (ok, dist, bound)."""
    inst.check_points(a=a, b=b, h=h, m=m)
    p = _params(inst)
    cs = cs or l_constants(p, r, 1, inst.d)
    if inst.rho(inst.med(a, b, h), h) > cs.L1:
        raise PreconditionViolation("h is not L1-between a and b", a=a, b=b, h=h)
    if inst.rho(inst.med(a, h, m), m) > cs.L2:
        raise PreconditionViolation("m is not L2-between a and h", a=a, h=h, m=m)
    proj = inst.med(m, b, h)
    dist = Fraction(inst.rho(h, proj))
    bound = p.K * (cs.L1 + cs.L2) + 2 * p.H0 + p.gamma
    return dist <= bound, dist, bound


# -- exact finite approximation --------------------------------------


def median_closure(g: MedianGraph, a, cap: int = CLOSURE_CAP) -> VertexSet:
    """Smallest median-stable superset of the vertices ``a``, closed on
    the sign codes: on a partial cube the three intervals of a triple
    meet in the vertex whose code is the majority of theirs, or in none.
    BudgetExceeded when a round leaves more than ``cap`` points.  A
    majority that is no vertex's code, or a graph without codes, raises
    what verify_medians raises: the graph's first bad triple."""
    codes = g.wall_codes()
    if codes is None:
        g.verify_medians()
    v, hit = codes.locate(majority_closure(codes.planes[:, list(a)], cap))
    if not hit.all():
        g.verify_medians()
    return VertexSet.of(g.n, v.tolist())


@dataclass
class C2Report:
    closure: VertexSet
    h_p: Fraction
    closure_rank: int
    graph_rank: int

    @property
    def ok(self) -> bool:
        return self.h_p == 0 and self.closure_rank <= self.graph_rank


def verify_C2_exact(g: MedianGraph, a, cap: int = CLOSURE_CAP) -> C2Report:
    """Close ``a`` under medians inside the graph and report the
    finite-approximation conditions with zero defect.  ``h_p``, how far
    medians of the closure's triples land outside it, is 0 because the
    closure is a fixpoint of the same operation.

    The closure's rank comes from the ambient walls restricted to it:
    its halfspaces are exactly the non-trivial traces of ambient
    halfspaces.  A trace is convex in the closure, and so is its
    complement, since an interval of the closure is the ambient one cut
    down to it ([u, v] is the set of x with m(u, v, x) = x).  Conversely
    let a, b be adjacent in the closure, and W an ambient wall between
    them.  Each x of the closure has m(a, b, x) = a or b, on a geodesic
    from x to the other end, which crosses W once, between a and b; so x
    lies on the side of W of m(a, b, x), and W's trace is the closure's
    halfspace of the edge (a, b).  Constant columns are dropped;
    repeated or complementary ones never cross, so they need no dedupe.
    Walls that cross on the closure cross in the graph, so
    closure_rank <= graph_rank."""
    pi = median_closure(g, a, cap)
    sides = g.wall_codes().sides()[pi.members()]
    varies = sides.any(axis=0) & ~sides.all(axis=0)
    return C2Report(
        closure=pi,
        h_p=Fraction(0),
        closure_rank=crossing_rank(sides[:, varies]),
        graph_rank=graph_rank(g),
    )


def measured_h5(inst: CoarseMedianInstance, samples: int = 60, seed: int = 0,
                cap: int = CLOSURE_CAP) -> Fraction | None:
    """Worst finite-approximation defect over sampled 5-point subsets.
    The lifted subset is closed under medians in the ambient graph; the
    defect is the larger of (a) rounded ambient operation vs instance
    operation over all closure triples and (b) round-trip displacement
    of the sampled points.  None when the instance has no ambient graph."""
    if inst.ambient is None or inst.round_to_point is None:
        return None
    g = inst.ambient
    lift = inst.point_to_ambient
    rnd = np.asarray(inst.round_to_point, dtype=np.int64)
    rng = random.Random(seed)
    tab = g.median_table()
    worst = Fraction(0)
    for _ in range(samples):
        pts = rng.sample(range(inst.n), min(5, inst.n))
        for p in pts:
            worst = max(worst, Fraction(inst.rho(p, int(rnd[lift[p]]))))
        pi = median_closure(g, VertexSet.of(g.n, [lift[p] for p in pts]), cap)
        mem = np.array(pi.members(), dtype=np.int64)
        rmem = rnd[mem]
        step = max(1, 4_000_000 // max(1, len(mem) ** 2))
        for lo in range(0, len(mem), step):
            blk = slice(lo, lo + step)
            amb = rnd[tab[np.ix_(mem[blk], mem, mem)].astype(np.int64)]
            got = inst.mu[rmem[blk, None, None], rmem[None, :, None],
                          rmem[None, None, :]].astype(np.int64)
            worst = max(worst, inst._worst(amb.ravel(), got.ravel()))
    return worst


# -- witness provider -------------------------------------------------


def witness_sets_coarse(inst: CoarseMedianInstance, basepoint: int, x: int,
                        k: int, t, r_t, kappa=None,
                        diagnose: bool = False) -> frozenset[int]:
    """Deep points h_y of (y, basepoint) at scale r_t, one per y within
    distance k of x.  Valid while k <= 3*l for l = (t*r_t - H0)/(3K).
    With diagnose=True the projection chain behind that validity is
    checked per y and the first broken link raises ConditionViolation."""
    inst.check_points(basepoint=basepoint, x=x)
    p = _params(inst)
    level = (Fraction(t) * Fraction(r_t) - p.H0) / (3 * p.K)
    if Fraction(k) > 3 * level:
        raise PreconditionViolation(
            f"radius {k} exceeds the certified reach {3 * level}",
            k=k, reach=str(3 * level),
        )
    if kappa is None:
        kappa = p.lam
    cs = l_constants(p, r_t, t, inst.d)
    l1_lam = l_constants(p, p.lam, 1, inst.d).L1
    out = set()
    for y in np.flatnonzero(inst.nums[x] <= inst.threshold(k)).tolist():
        h = find_deep_point(inst, y, basepoint, r_t, t, kappa)
        if h is None:
            raise NotFound(
                f"no deep point for ({y},{basepoint}) at scale {r_t}",
                y=y, r=str(Fraction(r_t)), t=str(Fraction(t)),
            )
        out.add(h)
        if not diagnose:
            continue
        m = inst.med(x, y, basepoint)
        if inst.rho(y, m) > Fraction(t) * Fraction(r_t):
            raise ConditionViolation(
                "center projection drifted past t*r", x=x, y=y, m=m,
            )
        if inst.rho(inst.med(y, h, m), m) > cs.L2:
            raise ConditionViolation(
                "projected center escapes the deep point's reach",
                y=y, h=h, m=m,
            )
        ok, dd, bound = check_lemma_6_5(inst, y, basepoint, h, m, r_t)
        if not ok:
            raise ConditionViolation(
                "re-projection moved farther than its bound",
                y=y, h=h, dist=str(dd), bound=str(bound),
            )
        proj = inst.med(m, basepoint, h)
        if inst.rho(inst.med(x, basepoint, proj), proj) > l1_lam:
            raise ConditionViolation(
                "re-projection leaves the basepoint interval",
                x=x, y=y, proj=proj,
            )
    return frozenset(out)


class CoarseWitnessProvider:
    """Witness sets from deep points: S(x, k, l) collects, for each y
    within distance k of x, the first deep point of (y, basepoint) at
    the scale r(l) matched to the level so that k <= 3l centers stay
    inside the absorbed ball slice."""

    name = "coarse"

    def __init__(self, inst: CoarseMedianInstance, basepoint: int, t: int = 1,
                 r_floor: int = 0):
        self.inst = inst
        self.basepoint = int(basepoint)
        self.t = int(t)
        if self.t < 1:
            # scale() divides by t
            raise ValueError(f"t {self.t} is below 1")
        self.r_floor = int(r_floor)
        self.params = _params(inst)
        self._endpoints: dict[int, np.ndarray] = {}

    @property
    def distance_table(self) -> np.ndarray:
        """The metric's integer numerators ``nums``: the distance from x
        to y is distance_table[x, y] / den."""
        return self.inst.nums

    @property
    def den(self) -> int:
        return self.inst.den

    def scale(self, l: int) -> int:
        p = self.params
        needed = _ceil_frac((3 * p.K * l + p.H0) / self.t)
        return max(needed, self.r_floor)

    def _endpoint_row(self, l: int) -> np.ndarray:
        """The first deep point of (y, basepoint) at scale(l) for every
        point y, -1 where there is none; one row per scale."""
        r = self.scale(l)
        row = self._endpoints.get(r)
        if row is None:
            deep = (find_deep_point(self.inst, y, self.basepoint, r, self.t, self.params.lam)
                    for y in range(self.inst.n))
            row = self._endpoints[r] = np.array([-1 if h is None else h for h in deep], dtype=np.intp)
        return row

    def sets(self, x: int, k: int, l: int) -> frozenset[int]:
        """The endpoints of the ball of radius k about x; NotFound for
        its first point without a deep point."""
        if not (1 <= k <= 3 * l):
            raise ValueError(f"radius index {k} outside 1..{3 * l}")
        self.inst.check_points(x=x)
        ball = np.flatnonzero(self.inst.nums[x] <= self.inst.threshold(k))
        ends = self._endpoint_row(l)[ball]
        if (ends < 0).any():
            y, r = int(ball[np.argmax(ends < 0)]), self.scale(l)
            raise NotFound(f"no deep point for ({y},{self.basepoint}) at scale {r}", y=y, r=r, t=self.t)
        return frozenset(ends.tolist())


def discover_deep_scale(inst: CoarseMedianInstance, t: int, pairs,
                        r_max: int) -> int | None:
    """Smallest scale r <= r_max at which every sampled (a, b) pair has
    a deep point; None if the sweep exhausts r_max."""
    lam = _params(inst).lam
    for r in range(1, r_max + 1):
        if all(find_deep_point(inst, a, b, r, t, lam) is not None for a, b in pairs):
            return r
    return None


# -- generators -------------------------------------------------------


def from_median_graph(g: MedianGraph) -> CoarseMedianInstance:
    """Exact instance: graph metric, graph medians, identity rounding;
    refused above INSTANCE_LIMIT points before the n^3 median table is
    built."""
    _refuse_above_limit(g.n)
    return CoarseMedianInstance(
        g.dist,
        g.median_table(),
        d=graph_rank(g),
        ambient=g,
        point_to_ambient=list(range(g.n)),
        round_to_point=np.arange(g.n),
    )


def coarsened_grid(w: int, h: int) -> CoarseMedianInstance:
    """Keep the even-coordinate-sum points of a (2w+1) x (2h+1) grid
    with the restricted grid metric; the operation is the ambient grid
    median pushed to the nearest kept point, ties toward lower
    coordinates.  Rounding makes the defects genuinely nonzero.  Refused
    above INSTANCE_LIMIT points from w and h, before any table is built."""
    cols, rows = 2 * w + 1, 2 * h + 1
    _refuse_above_limit((max(cols, 0) * max(rows, 0) + 1) // 2)
    coords = [(i, j) for i in range(cols) for j in range(rows) if (i + j) % 2 == 0]
    index = {c: p for p, c in enumerate(coords)}

    def nearest_kept(i: int, j: int) -> int:
        if (i + j) % 2 == 0:
            return index[(i, j)]
        best = None
        for di, dj in ((-1, 0), (0, -1), (0, 1), (1, 0)):
            ii, jj = i + di, j + dj
            if 0 <= ii < cols and 0 <= jj < rows:
                if best is None or (ii, jj) < best:
                    best = (ii, jj)
        return index[best]

    round_amb = np.fromiter(
        (nearest_kept(i, j) for i in range(cols) for j in range(rows)),
        dtype=np.int64,
        count=cols * rows,
    )

    def med3(v: np.ndarray) -> np.ndarray:
        a, b, c = v[:, None, None], v[None, :, None], v[None, None, :]
        return a + b + c - np.minimum(np.minimum(a, b), c) \
            - np.maximum(np.maximum(a, b), c)

    ci = np.array([c[0] for c in coords], dtype=np.int64)
    cj = np.array([c[1] for c in coords], dtype=np.int64)
    dist = np.abs(ci[:, None] - ci) + np.abs(cj[:, None] - cj)
    mu = round_amb[med3(ci) * rows + med3(cj)].astype(np.int32)
    return CoarseMedianInstance(
        dist, mu, d=2,
        ambient=grid(2 * w, 2 * h),
        point_to_ambient=[i * rows + j for i, j in coords],
        round_to_point=round_amb,
    )
