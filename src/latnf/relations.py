"""Relation machinery: smoothness testing, the residue-dependent modulus
branch, single relations (walk + box + smooth test), Gaussian-input
random relations, and exceptional S-units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from . import samplers
from .divisor_log import log_s_embed, LogSUnitVector
from .dyadic import Q, exp_ball
from .ideal_arith import (HnfIdeal, PrimeIdeal, factor_over, hnf_inv,
                          hnf_mul, ord_at, prime_product, primes_up_to,
                          walk_primes)
from .ideal_walk import (WalkParams, WalkTrace, sample_beta,
                         walk_bound_terms, walk_params)
from .nf_core import CapExceeded, FieldElement, NumberField
from .samplers import SamplerConfig, walk_radius

# float slack on the concentration check of a random relation's Log-S norm
CONCENTRATION_SLACK = 1e-6
# sampler calls per relation input (and per exceptional unit), then error
ATTEMPT_CAP = 250
# draws of tau, a unit mod m0, per relation search, then error
TAU_DRAW_CAP = 10_000


class FactorBase:
    """Sorted duplicate-free list of prime ideals with HNF lookup."""

    def __init__(self, primes):
        seen = {}
        for p in primes:
            seen[p.hnf] = p
        self.primes = sorted(seen.values(), key=lambda p: p.sort_key())
        self._index = {p.hnf: i for i, p in enumerate(self.primes)}

    def __len__(self):
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __getitem__(self, i):
        return self.primes[i]

    def index_of(self, prime: PrimeIdeal):
        return self._index.get(prime.hnf)

    def excluding(self, m0_primes):
        bad = {p.hnf for p in m0_primes}
        return FactorBase([p for p in self.primes if p.hnf not in bad])


def smooth_factor(a: HnfIdeal, fb: FactorBase):
    """Exact valuation vector of a over the factor base, or None if the
    cofactor is nontrivial.  Verified by full reconstruction."""
    if not a.is_integral():
        raise ValueError("smooth_factor expects an integral ideal")
    return factor_over(a, fb)


def branch_x(field: NumberField) -> float:
    """x = max(log^(2/3)|D| / log^(4/3) log|D|, n^(2/3)/log^(2/3) n)."""
    ld = math.log(abs(field.disc_field))
    n = field.n
    return max(ld ** (2 / 3) / math.log(ld) ** (4 / 3),
               n ** (2 / 3) / math.log(n) ** (2 / 3))


def modulus_branch(field: NumberField, rho_tilde: float,
                   x_override: float | None = None):
    """(x, m0, m0_primes): m0 = product of primes of norm < x when the
    residue estimate is large, trivial otherwise."""
    x = x_override if x_override is not None else branch_x(field)
    if rho_tilde <= math.exp(x * math.log(x) ** 2):
        return x, HnfIdeal.ring_of_integers(field), []
    prims = [p for p in primes_up_to(field, math.ceil(x))
             if p.norm() < x]
    return x, prime_product(field, [(p, 1) for p in prims]), prims


@dataclass
class RelationConfig:
    b_sm: int = 16
    b_rw: int = 16
    walk_b_override: int | None = None
    sampler: SamplerConfig | None = None
    eps_override: Fraction | None = None


def default_blocksize(field: NumberField) -> int:
    return max(2, min(field.n, math.ceil(field.n ** (2 / 3))))


def choose_omega(field: NumberField, m0_norm, blocksize, x,
                 cfg: RelationConfig) -> int:
    """Smallest positive integer omega with
    r^n >= e^n max(B_sm, B_rw, 10 x^2)."""
    target = math.e ** field.n * max(cfg.b_sm, cfg.b_rw, 10 * x * x)
    target_q = Q(math.ceil(target * 2 ** 20), 2 ** 20)
    omega = 1
    const = (cfg.sampler or SamplerConfig()).radius_constant
    # Ends for a positive radius constant: r is proportional to omega, so
    # r^n passes the fixed target at some finite omega.
    while True:
        r = walk_radius(field, Q(m0_norm), blocksize, omega, const)
        # r^n >= target  <=>  pow^n >= target^k
        if r.pow_value ** field.n >= target_q ** r.k:
            return omega
        omega += 1


@dataclass
class SUnitRelation:
    alpha: object                 # FieldElement
    valuations: tuple             # v over fb: alpha O_K * a^{-1} = prod p^v
    total_valuations: tuple       # valuations of (alpha) over fb
    input_ideal: HnfIdeal
    attempts: int
    origin: object = None

    def log_s_vector(self, fb: FactorBase) -> LogSUnitVector:
        return log_s_embed(self.alpha, list(fb))


def _walk_params_for(field: NumberField, m0: HnfIdeal, blocksize: int,
                     omega, cfg: RelationConfig) -> WalkParams:
    m0_norm = int(m0.norm())
    if cfg.eps_override is not None:
        eps = cfg.eps_override
    else:
        r = walk_radius(field, Q(m0_norm), blocksize, omega,
                        (cfg.sampler or SamplerConfig()).radius_constant)
        rn_up = math.ceil(float(r.bracket(40)[1]) ** field.n)
        eps = Q(1, 1200 * abs(field.disc_field) * rn_up)
        cap = min(Q(1), Q(20, field.n))
        if eps >= cap:
            eps = cap / 2
    return walk_params(field, m0 if m0_norm > 1 else None, [], eps,
                       omega=omega, blocksize=blocksize,
                       b_override=cfg.walk_b_override)


def compute_one_relation(field: NumberField, a: HnfIdeal, fb: FactorBase,
                         y, rng, cfg: RelationConfig,
                         rho_tilde: float) -> SUnitRelation:
    """Algorithm: residue branch, then repeat the ideal sampler until
    alpha O_K a^{-1} is fb-smooth; outputs the verified relation."""
    x, m0, m0_primes = modulus_branch(field, rho_tilde)
    if m0_primes and any(fb.index_of(p) is not None for p in m0_primes):
        raise ValueError("factor base may not contain divisors of m0")
    if any(ord_at(a, p) != 0 for p in m0_primes):
        raise ValueError("input ideal must be coprime to m0")
    return _smooth_relation(field, a, fb, y, x, m0, m0_primes, m0, rng, cfg)


def _smooth_relation(field: NumberField, a: HnfIdeal, fb: FactorBase, y, x,
                     m0: HnfIdeal, m0_primes, walk_m0: HnfIdeal, rng,
                     cfg: RelationConfig) -> SUnitRelation:
    """Repeat the ideal sampler on a through the modulus m0, its walk
    coprime to walk_m0, until alpha O_K a^{-1} is fb-smooth, at most
    ATTEMPT_CAP times; a sampler that exceeds its own cap counts as a
    failed attempt.

    Every walk prime divides alpha O_K a^{-1}, so a prime the walk can
    draw that fb lacks would doom each attempt that draws it: that is a
    ValueError before the first attempt."""
    blocksize = default_blocksize(field)
    omega = choose_omega(field, int(m0.norm()), blocksize, x, cfg)
    params = _walk_params_for(field, m0, blocksize, omega, cfg)
    walk_arg = walk_m0 if int(walk_m0.norm()) > 1 else None
    missing = [p for p in walk_primes(field, params.prime_bound, walk_arg)
               if fb.index_of(p) is None]
    if missing:
        raise ValueError(
            f"the walk draws primes of norm up to {params.prime_bound}, "
            f"but the factor base lacks {len(missing)} of them (the "
            f"smallest of norm {missing[0].norm()})")
    tau = _sample_tau(field, m0, m0_primes, rng)
    a_inv = hnf_inv(a)
    m0_arg = m0 if int(m0.norm()) > 1 else None
    for attempts in range(1, ATTEMPT_CAP + 1):
        try:
            trace = sample_beta(field, m0_arg, [], a, y, tau, params, rng,
                                cfg.sampler, walk_arg)
        except CapExceeded:
            continue
        rel_ideal = hnf_mul(HnfIdeal.principal(field, trace.beta), a_inv)
        vals = smooth_factor(rel_ideal, fb)
        if vals is None:
            continue
        total = [v + ord_at(a, p) for v, p in zip(vals, fb)]
        return SUnitRelation(trace.beta, tuple(vals), tuple(total), a,
                             attempts, origin=trace)
    raise CapExceeded(f"no smooth relation after {ATTEMPT_CAP} attempts")


def _sample_tau(field: NumberField, m0: HnfIdeal, m0_primes, rng) -> FieldElement:
    """A nonzero tau coprime to m0, from coordinates drawn below N(m0):
    at most TAU_DRAW_CAP draws, then CapExceeded."""
    if int(m0.norm()) == 1:
        return field.one()
    bound = int(m0.norm())
    for _ in range(TAU_DRAW_CAP):
        coords = [rng.randrange(bound) for _ in range(field.n)]
        tau = field.element(coords)
        if tau.is_zero():
            continue
        if all(ord_at(HnfIdeal.principal(field, tau), p) == 0
               for p in m0_primes):
            return tau
    raise CapExceeded(f"no unit mod m0 in {TAU_DRAW_CAP} draws")


# ---------------------------------------------------------------------------
# Algorithm: random relation with Gaussian input


@dataclass
class RandomRelationConfig:
    relation: RelationConfig = dfield(default_factory=RelationConfig)


def grid_denominator(field: NumberField, omega: int) -> int:
    """Dyadic power of two at least omega^n exp(11 + 16 log^2|D| + 9 n^2)."""
    n = field.n
    log2_n = (n * math.log2(omega if omega > 1 else 1)
              + (11 + 16 * math.log(abs(field.disc_field)) ** 2 + 9 * n * n)
              * math.log2(math.e))
    return 2 ** math.ceil(log2_n + 1)


@dataclass
class RandomRelationOutput:
    vector: list                  # -(v_p + a_p) over fb
    relation: SUnitRelation
    sigma: float
    r0_bound: float


def random_relation(field: NumberField, fb: FactorBase, rng,
                    cfg: RandomRelationConfig | None = None,
                    rho_tilde: float | None = None,
                    sigma: float | None = None) -> RandomRelationOutput:
    """Gaussian divisor input -> one relation; output lies in the
    Log-S-unit lattice, with a certified concentration bound checked.

    The Gaussian width defaults to 3 max(sqrt(log n0), 1): the
    generating-radius prior is 1, not the paper's analytic bound
    poly(log|Delta|, max log N(p)), and `compute_sunits` passes a wider
    `sigma` when verification reports a proper sublattice."""
    cfg = cfg or RandomRelationConfig()
    rel_cfg = cfg.relation
    n = field.n
    r1 = field.n_real + field.n_cplx
    blocksize = default_blocksize(field)
    x, m0, m0_primes = modulus_branch(field, rho_tilde or 1.0)
    omega = choose_omega(field, int(m0.norm()), blocksize, x, rel_cfg)
    sigma = sigma or 3 * max(math.sqrt(math.log(r1 + len(fb))), 1.0)
    grid_n = grid_denominator(field, omega)
    # Klein over Div_{K,S,N}: standard basis e_p, plus e_nu / N
    dim = len(fb) + r1
    cols = []
    for i in range(len(fb)):
        col = [Q(0)] * dim
        col[i] = Q(1)
        cols.append(col)
    for j in range(r1):
        col = [Q(0)] * dim
        col[len(fb) + j] = Q(1, grid_n)
        cols.append(col)
    sigma_q = Q(math.ceil(sigma * 2 ** 12), 2 ** 12)
    eps_g = 1 / 100
    log2_norms = [math.log2(p.norm()) for p in fb]
    size_clamp = 1.5 * 0.8 * sigma * sum(log2_norms) + 64
    rel = None
    for _redraw in range(24):
        _coeffs, vec = samplers.klein_sample(cols, sigma_q, [Q(0)] * dim,
                                             eps_g, rng)
        a_p = [int(v) for v in vec[:len(fb)]]
        b_nu = [Q(v) for v in vec[len(fb):]]
        # oversized ideals make single attempts disproportionately slow;
        # redraw instead (the verification loop, not the sampler, gates
        # correctness)
        if sum(abs(a) * l for a, l in zip(a_p, log2_norms)) > size_clamp:
            continue
        # a-ideal and rational y close to exp of the infinite part
        a_ideal = prime_product(field, zip(fb, a_p))
        rel_bits = grid_n.bit_length() + 16
        y = [Q(1)] * n
        for (emb_idx, nnu), b in zip(field.places(), b_nu):
            val = exp_ball(Q(b) / nnu, rel_bits).mid
            y[emb_idx] = val
            if nnu == 2:
                y[emb_idx + 1] = val
        try:
            rel = compute_one_relation(field, a_ideal, fb, y, rng, rel_cfg,
                                       rho_tilde if rho_tilde is not None else 1.0)
            break
        except CapExceeded:
            continue      # redraw the Gaussian input
    if rel is None:
        raise CapExceeded("random relation: every Gaussian redraw "
                          "exhausted its attempt cap")
    out_vec = [-(v + ap) for v, ap in zip(rel.valuations, a_p)]
    # identity check: the finite part of Log_S(alpha) equals out_vec
    lsv = rel.log_s_vector(fb)
    if list(lsv.val_part) != out_vec:
        raise RuntimeError("relation valuation identity failed")
    r0 = concentration_bound(field, fb, sigma, rel.origin)
    norm_sq = float(lsv.norm_sq().hi())
    if math.sqrt(norm_sq) > r0 + CONCENTRATION_SLACK:
        raise RuntimeError("concentration bound violated")
    return RandomRelationOutput(out_vec, rel, sigma, r0)


def concentration_bound(field: NumberField, fb: FactorBase, sigma: float,
                        trace: WalkTrace) -> float:
    """Certified per-sample bound: the Klein hard bound 3 sigma n0 plus
    the boundedness-property terms of the sample's walk and box."""
    n0 = len(fb) + field.n_real + field.n_cplx
    return 3 * sigma * n0 + walk_bound_terms(trace) + 1.0


# ---------------------------------------------------------------------------
# Exceptional S-units


def exceptional_unit(field: NumberField, q: PrimeIdeal, fb: FactorBase,
                     m0: HnfIdeal, m0_primes, rng,
                     cfg: RelationConfig) -> SUnitRelation:
    """alpha with alpha O_K = q * prod_{p in fb} p^{v_p} (ord_q = 1),
    sampled through the modulus m0/q.  The walk stays coprime to all of
    m0: a walk prime q would put q^2 in alpha O_K."""
    if ord_at(m0, q) == 0:
        raise ValueError("q must divide m0")
    if any(fb.index_of(p) is not None for p in m0_primes):
        raise ValueError("factor base may not contain divisors of m0")
    m0_over_q = hnf_mul(m0, hnf_inv(q.hnf))
    rest = [p for p in m0_primes if p != q]
    # ord_at(q, p) = 0 for every p in fb, so the totals are the valuations
    return _smooth_relation(field, q.hnf, fb, [Q(1)] * field.n,
                            branch_x(field), m0_over_q, rest, m0, rng, cfg)


def sample_budget(field: NumberField, s_size: int, sigma: float,
                  k: int) -> int:
    """6k + 6(|S|+r)[log((|S|+r) sigma) + C loglog|D|] with C = 1: a hint,
    not a guarantee (verification is by the determinant check)."""
    r = field.n_real + field.n_cplx - 1
    m = s_size + r
    if m == 0:
        return 6 * k
    return math.ceil(6 * k + 6 * m * (math.log(m * sigma)
                                      + math.log(math.log(abs(field.disc_field)))))
