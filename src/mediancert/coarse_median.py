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
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube_complex import rank as graph_rank
from .errors import (
    BudgetExceeded,
    ConditionViolation,
    NotCoarseMedian,
    NotFound,
    PreconditionViolation,
)
from .median_core import MedianGraph, VertexSet

INSTANCE_LIMIT = 160
K_GRID = [Fraction(4 + i, 4) for i in range(29)]  # 1, 1.25, ..., 8
EXHAUSTIVE_POINTS = 40
CLOSURE_CAP = 512


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


class CoarseMedianInstance:
    """Points 0..n-1 with an exact metric table and a ternary operation
    table.  Metric axioms are validated on load; the operation's
    permutation invariance and absorption of repeated arguments are
    measured and recorded as m1_defect / m2_defect."""

    def __init__(self, dist, mu: np.ndarray, d: int = 2,
                 ambient: MedianGraph | None = None,
                 point_to_ambient: list[int] | None = None,
                 round_to_point: np.ndarray | None = None):
        if int(d) < 0:
            # l_constants takes 3 ** d, which is a float below 0
            raise ValueError(f"rank {d} is below 0")
        self.mu = np.asarray(mu, dtype=np.int32)
        self.n = self.mu.shape[0]
        if self.n > INSTANCE_LIMIT:
            raise BudgetExceeded(f"instance above {INSTANCE_LIMIT} points", n=self.n)
        if self.mu.shape != (self.n, self.n, self.n):
            raise ValueError("operation table must be cubic")
        if self.mu.min() < 0 or self.mu.max() >= self.n:
            raise ValueError("operation value out of range")
        self.d = int(d)
        self.dist_int: np.ndarray | None = None
        self.dist_frac: list[list[Fraction]] | None = None
        if all(Fraction(v).denominator == 1 for row in dist for v in row):
            self.dist_int = np.array(
                [[int(Fraction(v)) for v in row] for row in dist], dtype=np.int32
            )
        else:
            self.dist_frac = [[Fraction(v) for v in row] for row in dist]
        self._validate_metric()
        self.ambient = ambient
        self.point_to_ambient = point_to_ambient
        self.round_to_point = round_to_point
        self.m1_defect, self.m2_defect = self._operation_defects()
        self.params: CoarseParams | None = None

    # -- metric ------------------------------------------------------

    def rho(self, i: int, j: int):
        if self.dist_int is not None:
            return int(self.dist_int[i, j])
        return self.dist_frac[i][j]

    def _validate_metric(self) -> None:
        n = self.n
        if self.dist_int is not None:
            d = self.dist_int
            if d.shape != (n, n):
                raise ValueError("metric table shape mismatch")
            if np.any(np.diag(d) != 0) or np.any(d != d.T):
                raise ValueError("metric is not symmetric with zero diagonal")
            if np.any((d == 0) & ~np.eye(n, dtype=bool)):
                raise ValueError("distinct points at distance zero")
            if np.any(d[:, :, None] + d[None, :, :] < d[:, None, :]):
                raise ValueError("triangle inequality fails")
            return
        if len(self.dist_frac) != n or any(len(r) != n for r in self.dist_frac):
            raise ValueError("metric table shape mismatch")
        for i in range(n):
            if self.dist_frac[i][i] != 0:
                raise ValueError("nonzero diagonal")
            for j in range(n):
                if self.dist_frac[i][j] != self.dist_frac[j][i]:
                    raise ValueError("metric is not symmetric")
                if i != j and self.dist_frac[i][j] <= 0:
                    raise ValueError("nonpositive distance")
        for i, j, k in itertools.product(range(n), repeat=3):
            if self.dist_frac[i][j] + self.dist_frac[j][k] < self.dist_frac[i][k]:
                raise ValueError("triangle inequality fails")

    # -- operation ---------------------------------------------------

    def med(self, i: int, j: int, k: int) -> int:
        return int(self.mu[i, j, k])

    def _operation_defects(self):
        tab = self.mu
        m1 = Fraction(0)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            other = tab.transpose(perm)
            if not np.array_equal(tab, other):
                mism = tab != other
                m1 = max(m1, max(
                    Fraction(self.rho(int(a), int(b)))
                    for a, b in zip(tab[mism].ravel(), other[mism].ravel())
                ))
        idx = np.arange(self.n)
        diag = tab[idx[:, None], idx[:, None], idx[None, :]]
        m2 = Fraction(0)
        if not np.array_equal(diag, idx[:, None].repeat(self.n, axis=1)):
            mism = diag != idx[:, None]
            aa, bb = np.nonzero(mism)
            m2 = max(Fraction(self.rho(int(diag[a, b]), int(a))) for a, b in zip(aa, bb))
        return m1, m2

    def points(self) -> range:
        return range(self.n)


def coarse_interval(inst: CoarseMedianInstance, a: int, b: int, tau) -> frozenset[int]:
    """Points x with rho(mu(a,b,x), x) <= tau."""
    tau = Fraction(tau)
    return frozenset(
        x for x in inst.points() if inst.rho(inst.med(a, b, x), x) <= tau
    )


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


def _sextuple_sample(inst: CoarseMedianInstance, budget: int, seed: int):
    """Displacement pairs (args, mu) for a seeded sextuple sample."""
    rng = np.random.default_rng(seed)
    n = inst.n
    idx = rng.integers(0, n, size=(budget, 6))
    mu = inst.mu
    m1 = mu[idx[:, 0], idx[:, 1], idx[:, 2]]
    m2 = mu[idx[:, 3], idx[:, 4], idx[:, 5]]
    if inst.dist_int is not None:
        d = inst.dist_int.astype(np.int64)
        lhs = d[m1, m2]
        rhs = d[idx[:, 0], idx[:, 3]] + d[idx[:, 1], idx[:, 4]] + d[idx[:, 2], idx[:, 5]]
        return lhs, rhs
    lhs = [inst.rho(int(p), int(q)) for p, q in zip(m1, m2)]
    rhs = [
        inst.rho(int(r[0]), int(r[3])) + inst.rho(int(r[1]), int(r[4]))
        + inst.rho(int(r[2]), int(r[5]))
        for r in idx
    ]
    return lhs, rhs


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
    rng = np.random.default_rng(seed ^ 0x5EED)
    idx = rng.integers(0, inst.n, size=(budget, 5))
    mu = inst.mu
    x, y, z, v, w = (idx[:, i] for i in range(5))
    lhs = mu[x, y, mu[z, v, w]]
    rhs = mu[mu[x, y, z], mu[x, y, v], w]
    if inst.dist_int is not None:
        return Fraction(int(inst.dist_int[lhs, rhs].max()))
    return max(Fraction(inst.rho(int(a), int(b))) for a, b in zip(lhs, rhs))


def estimate_params(inst: CoarseMedianInstance, budget: int = 200_000,
                    seed: int = 0, h0_cap=None) -> CoarseParams:
    """Fit (K, H0) lexicographically over the K grid (smallest K first,
    then its smallest H0), measure gamma over 5-tuples and lam over
    triples.  Sweeps are exhaustive up to 40 points, sampled above.
    With an H0 cap, K values whose fitted H0 exceeds the cap are
    rejected; if none fits, NotCoarseMedian."""
    exhaustive = inst.n <= EXHAUSTIVE_POINTS and inst.dist_int is not None
    if exhaustive:
        gamma = _gamma_exhaustive(inst)
        env = _slot_envelope(inst)
    else:
        gamma = _gamma_sampled(inst, budget, seed)
        sample = _sextuple_sample(inst, budget, seed)
    fit = None
    for k in K_GRID:
        if exhaustive:
            h0 = _h0_exhaustive(inst, k, env)
        else:
            lhs, rhs = sample
            if isinstance(lhs, np.ndarray):
                gap = k.denominator * lhs - k.numerator * rhs
                h0 = Fraction(int(gap.max()), k.denominator)
            else:
                h0 = max(l - k * r for l, r in zip(lhs, rhs))
        h0 = max(h0, Fraction(0))
        if h0_cap is None or h0 <= Fraction(h0_cap):
            fit = (k, h0)
            break
    if fit is None:
        raise NotCoarseMedian(
            f"no multiplier below {K_GRID[-1]} fits within the cap",
            cap=str(h0_cap),
        )
    lam = Fraction(0)
    mu, n = inst.mu, inst.n
    if inst.dist_int is not None:
        z = np.arange(n)
        proj = mu[z[:, None, None], z[None, :, None], mu]
        lam = Fraction(int(inst.dist_int[proj.ravel(), mu.ravel()].max()))
    else:
        for x, y, zz in itertools.product(range(n), repeat=3):
            m = inst.med(x, y, zz)
            lam = max(lam, Fraction(inst.rho(inst.med(x, y, m), m)))
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
    Returns (True, None) or (False, witness)."""
    p = _params(inst)
    if inst.rho(inst.med(a, b, x), x) > p.lam:
        raise PreconditionViolation(
            f"{x} is not lam-between {a} and {b}", a=a, b=b, x=x,
        )
    l1 = (cs or l_constants(p, r, 1, inst.d)).L1
    r = Fraction(r)
    for z in inst.points():
        if inst.rho(inst.med(a, x, z), z) <= r:
            if inst.rho(inst.med(a, b, z), z) > l1:
                return False, z
    return True, None


def find_deep_point(inst: CoarseMedianInstance, a: int, b: int, r, t, kappa):
    """First point h (ordered by distance from a, then id) that sits
    L1(r)-between a and b within distance L3(r,t) of a and absorbs the
    whole rt-ball slice: every x with rho(a,x) <= r*t in the
    kappa-interval of (a,b) must be L2(r)-between a and h.  Returns the
    point or None; absence at one scale is a result, not an error."""
    if Fraction(r) <= 0 or Fraction(t) <= 0:
        return None  # degenerate scale, below any workable r
    p = _params(inst)
    cs = l_constants(p, r, t, inst.d)
    kappa = Fraction(kappa)
    rt = Fraction(r) * Fraction(t)
    cut = [
        x for x in inst.points()
        if inst.rho(a, x) <= rt and inst.rho(inst.med(a, b, x), x) <= kappa
    ]
    candidates = sorted(
        (
            h for h in inst.points()
            if inst.rho(inst.med(a, b, h), h) <= cs.L1 and inst.rho(a, h) <= cs.L3
        ),
        key=lambda h: (inst.rho(a, h), h),
    )
    for h in candidates:
        if all(inst.rho(inst.med(a, h, x), x) <= cs.L2 for x in cut):
            return h
    return None


def check_lemma_6_5(inst: CoarseMedianInstance, a: int, b: int, h: int, m: int, r,
                    cs: LConstants | None = None):
    """With h L1(r)-between (a,b) and m L2(r)-between (a,h): projecting
    m back toward b through h moves it at most
    K*(L1+L2) + 2*H0 + gamma away from h.  ``cs`` may pass in
    l_constants(params, r, 1, d).  Returns (ok, dist, bound)."""
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


def median_closure(g: MedianGraph, a: VertexSet, cap: int = CLOSURE_CAP) -> VertexSet:
    """Smallest median-stable superset of ``a``; BudgetExceeded beyond
    ``cap`` points."""
    tab = g.median_table()
    cur = np.array(sorted(a), dtype=np.int64)
    while True:
        vals = np.unique(tab[np.ix_(cur, cur, cur)].astype(np.int64))
        merged = np.union1d(cur, vals)
        if len(merged) > cap:
            raise BudgetExceeded("median closure exceeded its cap", cap=cap)
        if len(merged) == len(cur):
            return VertexSet.of(g.n, cur.tolist())
        cur = merged


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
    """Close ``a`` under medians inside the graph and verify the
    finite-approximation conditions with zero defect: the closure is
    stable triple-by-triple (so restriction and inclusion commute with
    the operation exactly) and its own rank does not exceed the
    graph's.  The closure's intrinsic graph has an edge where an
    intrinsic interval has exactly two points."""
    if not isinstance(a, VertexSet):
        a = VertexSet.of(g.n, a)
    pi = median_closure(g, a, cap)
    mem = pi.members()
    tab = g.median_table()
    sub = tab[np.ix_(mem, mem, mem)]
    h_p = Fraction(0)
    inside = set(mem)
    for v in np.unique(sub):
        if int(v) not in inside:
            h_p = max(h_p, min(Fraction(g.distance(int(v), u)) for u in mem))
    packed = g.packed_intervals()
    own = np.zeros((g.n + 7) // 8, dtype=np.uint8)
    for v in mem:
        own[v >> 3] |= 1 << (v & 7)
    sub_iv = packed[np.ix_(mem, mem)] & own[None, None, :]
    counts = np.unpackbits(sub_iv, axis=2).sum(axis=2, dtype=np.int32)
    iu, ju = np.nonzero(np.triu(counts == 2, 1))
    edges = list(zip(iu.tolist(), ju.tolist()))
    closure_rank = 0
    if len(mem) > 1:
        closure_graph = MedianGraph(len(mem), edges)
        closure_rank = graph_rank(closure_graph)
    return C2Report(
        closure=pi,
        h_p=h_p,
        closure_rank=closure_rank,
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
            if inst.dist_int is not None:
                gap = int(inst.dist_int[amb.ravel(), got.ravel()].max())
                worst = max(worst, Fraction(gap))
            else:
                worst = max(
                    worst,
                    max(inst.rho(int(u), int(v))
                        for u, v in zip(amb.ravel(), got.ravel())),
                )
    return worst


# -- witness provider -------------------------------------------------


def witness_sets_coarse(inst: CoarseMedianInstance, basepoint: int, x: int,
                        k: int, t, r_t, kappa=None,
                        diagnose: bool = False) -> frozenset[int]:
    """Deep points h_y of (y, basepoint) at scale r_t, one per y within
    distance k of x.  Valid while k <= 3*l for l = (t*r_t - H0)/(3K).
    With diagnose=True the projection chain behind that validity is
    checked per y and the first broken link raises ConditionViolation."""
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
    for y in inst.points():
        if inst.rho(x, y) > k:
            continue
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
        self.r_floor = int(r_floor)
        self.params = _params(inst)
        self._deep: dict[tuple[int, int], int] = {}
        self._sets: dict[tuple[int, int, int], frozenset[int]] = {}

    @property
    def point_count(self) -> int:
        return self.inst.n

    def distance(self, x: int, y: int):
        return self.inst.rho(x, y)

    def scale(self, l: int) -> int:
        p = self.params
        needed = _ceil_frac((3 * p.K * l + p.H0) / self.t)
        return max(needed, self.r_floor)

    def _deep_point(self, y: int, r: int) -> int:
        key = (y, r)
        h = self._deep.get(key)
        if h is None:
            h = find_deep_point(
                self.inst, y, self.basepoint, r, self.t, self.params.lam
            )
            if h is None:
                raise NotFound(
                    f"no deep point for ({y},{self.basepoint}) at scale {r}",
                    y=y, r=r, t=self.t,
                )
            self._deep[key] = h
        return h

    def sets(self, x: int, k: int, l: int) -> frozenset[int]:
        if not (1 <= k <= 3 * l):
            raise ValueError(f"radius index {k} outside 1..{3 * l}")
        key = (x, k, l)
        s = self._sets.get(key)
        if s is None:
            r = self.scale(l)
            s = frozenset(
                self._deep_point(y, r)
                for y in self.inst.points()
                if self.inst.rho(x, y) <= k
            )
            self._sets[key] = s
        return s


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
    """Exact instance: graph metric, graph medians, identity rounding."""
    return CoarseMedianInstance(
        g.dist.tolist(),
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
    coordinates.  Rounding makes the defects genuinely nonzero."""
    cols, rows = 2 * w + 1, 2 * h + 1
    coords = [(i, j) for i in range(cols) for j in range(rows) if (i + j) % 2 == 0]
    index = {c: p for p, c in enumerate(coords)}
    n = len(coords)

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

    dist = [
        [abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in coords] for a in coords
    ]
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
    mu = round_amb[med3(ci) * rows + med3(cj)].astype(np.int32)
    ambient_edges = []
    for i in range(cols):
        for j in range(rows):
            if i + 1 < cols:
                ambient_edges.append((i * rows + j, (i + 1) * rows + j))
            if j + 1 < rows:
                ambient_edges.append((i * rows + j, i * rows + j + 1))
    ambient = MedianGraph(cols * rows, ambient_edges)
    return CoarseMedianInstance(
        dist, mu, d=2,
        ambient=ambient,
        point_to_ambient=[i * rows + j for i, j in coords],
        round_to_point=round_amb,
    )
