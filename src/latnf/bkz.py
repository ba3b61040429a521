"""Provable block reduction: HKZ by enumeration, the Hanrot-Pujol-Stehle
BKZ' loop with a tour budget, and the recursive variant that bounds every
basis vector by 2n * b^(2n/b) * lambda_n.

All shortness bounds are checked by exact rational comparisons of suitable
integer powers, so no floating point enters any guarantee.  The loops run
on integer columns (the input times the lcm of its denominators) and on
the integral GSO state of `lattice_core.IntegralGSO`: one state per basis
change serves the size reduction, the projected blocks handed to HKZ and
the potential ledger (P(B)^2 = d_1 ... d_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import lattice_core, qlinalg
from .dyadic import Q
from .lattice_core import IntegralGSO, combine_cols, int_gram
from .qlinalg import int_identity, integral_cols


@dataclass
class BkzConfig:
    blocksize: int
    tour_cap_constant: Fraction = Q(1)
    max_tours: int | None = None


@dataclass
class ReductionTrace:
    hkz_calls: int = 0
    tours: int = 0
    potential_sq_ledger: list = field(default_factory=list)
    transform: list | None = None


def hkz_reduce(cols, trace: ReductionTrace | None = None):
    """HKZ-reduce an exact basis (dimension <= enumeration cap);
    returns (columns, U) with out = in * U."""
    n = len(cols)
    if n > lattice_core.DIM_CAP:
        raise ValueError("HKZ oracle capped at dimension "
                         f"{lattice_core.DIM_CAP}")
    ints, den = integral_cols(cols)
    _, u, state = lattice_core._hkz_int(int_gram(ints))
    out = [[Q(x, den) for x in c] for c in combine_cols(ints, u)]
    if trace is not None:
        trace.hkz_calls += 1
        # P(out)^2 = d_1 ... d_n, each d_k scaled by den^(2k)
        trace.potential_sq_ledger.append(
            Q(math.prod(state.d[1:]), den ** (n * (n + 1))))
    return out, u


def _projected_ints(state, ints, den, j, count):
    """pi_j(b_j..b_{j+count-1}) of the basis ints / den, times the lcm of
    the denominators of its entries, as integer vectors."""
    us = state.projected(ints, j, count)
    g = gcd(state.d[j] * den, *(x for v in us for x in v))
    return [[x // g for x in v] for v in us]


def _tracked(ints, transform):
    """Per basis column j: its entries, then column j of the transform,
    so one column operation updates both."""
    return [list(c) + [row[j] for row in transform] for j, c in enumerate(ints)]


def _state(vecs, m):
    """Integral GSO of the basis held in entries [:m] of the tracked
    vectors."""
    return IntegralGSO(int_gram([v[:m] for v in vecs]), vecs)


def _untrack(state, m, den, trace):
    """(Fraction columns, and the transform into trace)."""
    trace.transform = [list(r) for r in zip(*(v[m:] for v in state.vecs))]
    return [[Q(x, den) for x in v[:m]] for v in state.vecs]


def c1_bound_sq_ok(cols, b: int) -> bool:
    """Check ||c_1|| <= 2 b^((n-1)/(2(b-1)) + 3/2) covol^(1/n) exactly.

    Raise both sides to the power 2n(b-1):
    ||c1||^(2n(b-1)) <= 4^(n(b-1)) * b^(n(n-1) + 3n(b-1)) * det(G)^(b-1).
    """
    n = len(cols)
    ints, den = integral_cols(cols)
    try:
        detg = Q(IntegralGSO(int_gram(ints)).d[n], den ** (2 * n))
    except ValueError:
        detg = Q(0)      # dependent columns
    lhs = Q(sum(x * x for x in ints[0]), den * den) ** (n * (b - 1))
    rhs = (Q(4) ** (n * (b - 1)) * Q(b) ** (n * (n - 1) + 3 * n * (b - 1))
           * detg ** (b - 1))
    return lhs <= rhs


def bkz_prime(cols, cfg: BkzConfig):
    """BKZ' of Hanrot-Pujol-Stehle on an integral basis.

    Runs tours of blockwise HKZ + global size reduction until a no-change
    fixpoint, with a hard tour cap after which the run continues only
    until the first-vector bound is satisfied or nothing changes.
    Returns (columns, trace).
    """
    n = len(cols)
    b = cfg.blocksize
    if not 2 <= b <= n:
        raise ValueError("blocksize must lie in [2, n]")
    ints, den = integral_cols(cols)
    m = len(ints[0])
    trace = ReductionTrace(transform=int_identity(n))
    state = _state(_tracked(ints, trace.transform), m)
    # log-magnitudes via bit lengths (entries may be far beyond float range)
    max_norm_sq = Q(max(sum(x * x for x in c) for c in ints), den * den)
    log2_norm = max(1, max_norm_sq.numerator.bit_length()
                    - max_norm_sq.denominator.bit_length()) / 2
    detg = Q(state.d[n], den ** (2 * n))
    log2_det = (detg.numerator.bit_length() - detg.denominator.bit_length()) / (2 * n)
    log_q = max(2.0, (log2_norm - log2_det) * math.log(2))
    cap = cfg.max_tours
    if cap is None:
        base = n ** 3 / b ** 2 * (math.log(n) + math.log(max(2.0, math.log(max(2.0, log_q) + 2))))
        cap = max(64, math.ceil(float(cfg.tour_cap_constant) * base) * 8)
    ident_b = int_identity(b)

    def one_tour(state):
        changed = False
        for k in range(0, n - b + 1):
            block = _projected_ints(state, [v[:m] for v in state.vecs], den, k, b)
            _, u_blk = hkz_reduce(block, trace)
            if u_blk != ident_b:
                changed = True
                state.vecs[k:k + b] = combine_cols(state.vecs[k:k + b], u_blk)
                state = _state(state.vecs, m)
            shears = state.shears
            state.size_reduce()
            if state.shears != shears:
                changed = True
        return state, changed

    # Ends: a tour that changes nothing stops it, and past the cap so does
    # the first tour that meets the c_1 bound, which Hanrot-Pujol-Stehle
    # prove holds after O(n^3/b^2 log(...)) tours of exact-HKZ BKZ'.
    while True:
        state, changed = one_tour(state)
        trace.tours += 1
        if not changed:
            break
        if trace.tours >= cap and c1_bound_sq_ok(
                [[Q(x, den) for x in v[:m]] for v in state.vecs], b):
            break
    return _untrack(state, m, den, trace), trace


def bkz_full(cols, cfg: BkzConfig):
    """Recursive BKZ' delivering ||c_j|| <= 2n b^(2n/b) lambda_n for all j.

    Applies BKZ' to the basis, then to each det^2-scaled projected tail
    block, and finishes with a global size reduction (the backward lift).
    """
    n = len(cols)
    b = cfg.blocksize
    total_trace = ReductionTrace(transform=int_identity(n))
    cols, tr = bkz_prime(cols, cfg)
    _absorb(total_trace, tr)
    ints, den = integral_cols(cols)
    m = len(ints[0])
    state = _state(_tracked(ints, total_trace.transform), m)
    for j in range(1, n - b + 1):
        block = _projected_ints(state, [v[:m] for v in state.vecs], den, j, n - j)
        sub_cfg = BkzConfig(blocksize=b, tour_cap_constant=cfg.tour_cap_constant,
                            max_tours=cfg.max_tours)
        _, tr_sub = bkz_prime(block, sub_cfg)
        state.vecs[j:] = combine_cols(state.vecs[j:], tr_sub.transform)
        state = _state(state.vecs, m)
        total_trace.hkz_calls += tr_sub.hkz_calls
        total_trace.potential_sq_ledger.extend(tr_sub.potential_sq_ledger)
    state.size_reduce()
    return _untrack(state, m, den, total_trace), total_trace


def _absorb(total: ReductionTrace, tr: ReductionTrace):
    total.hkz_calls += tr.hkz_calls
    total.tours += tr.tours
    total.potential_sq_ledger.extend(tr.potential_sq_ledger)
    total.transform = lattice_core._int_mat_mul(total.transform, tr.transform)


def full_bound_sq_ok(cols, b: int, lambda_n_sq: Fraction) -> bool:
    """Check ||c_j||^2b <= (2n)^2b * b^(4n) * lambda_n^2b for all j."""
    n = len(cols)
    rhs = Q(2 * n) ** (2 * b) * Q(b) ** (4 * n) * Q(lambda_n_sq) ** b
    for c in cols:
        if qlinalg.dot([Q(x) for x in c], [Q(x) for x in c]) ** b > rhs:
            return False
    return True
