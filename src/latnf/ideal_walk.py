"""The ideal sampler: random-walk prime multiplication, Gaussian
distortion on the discretized hyperplane, box sampling; plus the
per-sample hard checks (membership, norm bound, boundedness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import samplers
from .divisor_log import Divisor, ideal_divisor_zero, principal_divisor
from .dyadic import Q, RealBall, exp_ball, log_ball
from .ideal_arith import HnfIdeal, hnf_mul, sample_prime_uniform
from .nf_core import FieldElement, NumberField
from .samplers import SamplerConfig, klein_sample, sample_in_box


@dataclass
class WalkParams:
    prime_bound: int          # B
    walk_length: int          # N
    s: Fraction               # Gaussian width on H, 1/n^2
    eps: Fraction             # error budget
    delta: Fraction           # dyadic grid parameter
    omega: Fraction
    blocksize: int


def walk_params(field: NumberField, m0: HnfIdeal | None, m_inf, eps,
                omega=1, blocksize=2,
                b_override: int | None = None) -> WalkParams:
    """Walk length, prime bound and grid parameter from the paper's
    formulas, with the Pic-volume term replaced by its certified upper
    bound log(N(m0) 2^{|mR|}) + log|Delta|."""
    n = field.n
    eps = Q(eps)
    if not 0 < eps < min(1, Q(20, n)):
        raise ValueError("eps must lie in (0, min(1, 20/n))")
    m0_norm = int(m0.norm()) if m0 is not None else 1
    pic_bound = math.log(m0_norm * 2 ** len(m_inf)) + math.log(abs(field.disc_field))
    walk_n = math.ceil(7 * n + 2 * math.log(1 / float(eps)) + pic_bound + 2)
    prime_b = walk_prime_bound(field, m0_norm, b_override)
    s = Q(1, n * n)
    delta = _delta_dyadic(field, eps, omega, s)
    return WalkParams(prime_b, walk_n, s, eps, delta, Q(omega), blocksize)


def walk_prime_bound(field: NumberField, m0_norm: int,
                     b_override: int | None) -> int:
    """The walk's prime bound B: b_override when given, else
    max(50, ceil(12 log^2|Delta| N(m0)^2))."""
    if b_override is not None:
        return b_override
    return max(50, math.ceil(12 * math.log(abs(field.disc_field)) ** 2
                             * m0_norm ** 2))


def _delta_dyadic(field: NumberField, eps: Fraction, omega, s: Fraction) -> Fraction:
    """Largest dyadic below the displayed delta formula, computed in
    log2 space with a safety margin."""
    n = field.n
    e40 = float(eps) / 40
    expo = 4 * n * n * float(s) + 1
    log2_delta = (expo * math.log2(e40) + math.log2(float(s))
                  - n * math.log2(float(omega))
                  - 10 * n * n * math.log2(math.e)
                  - math.log2(abs(field.disc_field))
                  - 0.5 * math.log2(n * math.log(2 * n / e40)))
    k = math.floor(log2_delta) - 2
    return Q(1, 2 ** (-k)) if k < 0 else Q(2) ** k


@dataclass
class WalkTrace:
    primes: list
    grid_point: list          # the exact Gaussian grid sample on H
    beta: FieldElement
    b_tilde: HnfIdeal
    draws: int
    params: WalkParams
    input_ideal: HnfIdeal
    input_y: list
    radius: samplers.RadiusExpr     # RADIUS(m0) at the box's constant


def hyperplane_basis(field: NumberField, delta: Fraction):
    """Basis (delta/n)(e_i - e_{i+1}) of the discretized hyperplane."""
    r1 = field.n_real + field.n_cplx
    scale = Q(delta) / field.n
    cols = []
    for i in range(r1 - 1):
        col = [Q(0)] * r1
        col[i] = scale
        col[i + 1] = -scale
        cols.append(col)
    return cols


def sample_beta(field: NumberField, m0: HnfIdeal | None, m_inf,
                b_ideal: HnfIdeal, y, tau: FieldElement,
                params: WalkParams, rng,
                cfg: SamplerConfig | None = None,
                walk_m0: HnfIdeal | None = None) -> WalkTrace:
    """One run of the ideal sampler: returns beta with its full trace.

    y is the positive rational distortion per embedding; tau must be
    coprime to m0 (congruence and sign conditions are taken from it).
    The walk draws primes coprime to walk_m0, by default m0.
    """
    n = field.n
    y = [Q(v) for v in y]
    walk_mod = m0 if walk_m0 is None else walk_m0
    # walk part: multiply by N uniform primes
    primes = []
    b_tilde = b_ideal
    for _ in range(params.walk_length):
        p = sample_prime_uniform(field, params.prime_bound, walk_mod, rng)
        primes.append(p)
        b_tilde = hnf_mul(b_tilde, p.hnf)
    # Gaussian distortion on the discretized hyperplane
    r1 = field.n_real + field.n_cplx
    if r1 >= 2:
        basis = hyperplane_basis(field, params.delta)
        eps_g = float(params.eps) / 4
        _coeffs, grid = klein_sample(basis, params.s, [Q(0)] * r1, eps_g, rng)
    else:
        grid = [Q(0)]
    # rational A_sigma with |A/exp(a_nu / n_nu) - 1| <= delta/(2n)
    a_by_place = list(grid)
    rel_bits = max(8, (4 * n * (1 / params.delta)).numerator.bit_length() + 4)
    dist = [Q(1)] * n
    for (emb_idx, nnu), a_nu in zip(field.places(), a_by_place):
        val = exp_ball(Q(a_nu) / nnu, rel_bits)
        a_mid = val.mid
        dist[emb_idx] = a_mid
        if nnu == 2:
            dist[emb_idx + 1] = a_mid
    x = [d * yv for d, yv in zip(dist, y)]
    res = sample_in_box(field, m0, m_inf, b_tilde, tau, params.blocksize, x,
                        params.omega, rng, cfg)
    radius = samplers.walk_radius(
        field, Q(m0.norm()) if m0 is not None else Q(1), params.blocksize,
        params.omega, (cfg or SamplerConfig()).radius_constant)
    return WalkTrace(primes, [Q(g) for g in grid], res.beta, b_tilde,
                     res.draws, params, b_ideal, y, radius)


# ---------------------------------------------------------------------------
# Per-sample hard checks


def check_membership(trace: WalkTrace) -> bool:
    return trace.b_tilde.contains(trace.beta)


def check_norm_bound(trace: WalkTrace) -> bool:
    """|N(beta)| <= N(b) B^N r^n with r = RADIUS(m0), exactly."""
    field, params, r = trace.beta.field, trace.params, trace.radius
    rhs_base = trace.input_ideal.norm() * Q(params.prime_bound) ** params.walk_length
    lhs = abs(trace.beta.norm())
    # compare lhs^k <= rhs_base^k * r^{nk} (r^k = pow_value)
    return lhs ** r.k <= rhs_base ** r.k * r.pow_value ** field.n


def walk_bound_terms(trace: WalkTrace) -> float:
    """5 log(B^N r^n) + s sqrt(n log(8 n^2/eps)), r = RADIUS(m0) (its 64-bit
    upper end): the boundedness property's terms that walk and box set."""
    params, n = trace.params, trace.beta.field.n
    log_bnrn = (params.walk_length * math.log(params.prime_bound)
                + n * math.log(float(trace.radius.bracket(64)[1])))
    return 5 * log_bnrn + float(params.s) * math.sqrt(
        n * math.log(8 * n * n / float(params.eps)))


def boundedness_check(trace: WalkTrace) -> bool:
    """||(beta)|| <= 5 log(B^N r^n) + ||a|| + s sqrt(n log(8 n^2/eps))."""
    lhs = principal_divisor(trace.beta, 96).euclid_norm(96)
    rhs = walk_bound_terms(trace) + float(input_divisor_norm(trace).hi())
    return float(lhs.hi()) <= rhs + 1e-6


def input_divisor_norm(trace: WalkTrace) -> RealBall:
    """||d0(b) + Log(y)|| for the walk input, at 64 bits."""
    field = trace.beta.field
    d0 = ideal_divisor_zero(trace.input_ideal)
    y_logs = [log_ball(Q(trace.input_y[emb_idx]), 64) * nnu
              for emb_idx, nnu in field.places()]
    total = Divisor(field, d0.finite_part,
                    [a + b for a, b in zip(d0.infinite_part, y_logs)])
    return total.euclid_norm(64)
