"""Provable block reduction: HKZ by enumeration, the Hanrot-Pujol-Stehle
BKZ' loop with a tour budget, and the recursive variant that bounds every
basis vector by 2n * b^(2n/b) * lambda_n.

All shortness bounds are checked by exact rational comparisons of suitable
integer powers, so no floating point enters any guarantee.  The loops run
on integer columns (the input times the lcm of its denominators) and on
one integral GSO state of `lattice_core.IntegralGSO` per reduction:

- each block's HKZ runs on the block's projected Gram, read off the
  state's d and lam (`projected_gram`), scaled by d_j and divided by the
  gcd of its entries.  Every HKZ decision is invariant under positive
  scaling of the Gram, so the transform is the one `hkz_reduce` finds on
  the block's projected vectors;
- each block transform, and each transform of a projected tail in
  `bkz_full`, is applied to the state in place by exact elementary column
  operations (`IntegralGSO.apply`).  The integral GSO of a basis is
  unique, so the state equals a rebuild from the new basis;
- a block left HKZ-reduced, with no operation on the basis since, is not
  reduced again: its transform is the identity.  It still counts in
  `ReductionTrace.hkz_calls`, which counts the blocks a reduction visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    transform: list | None = None


def hkz_reduce(cols):
    """HKZ-reduce an exact basis (dimension <= enumeration cap);
    returns (columns, U) with out = in * U."""
    if len(cols) > lattice_core.DIM_CAP:
        raise ValueError("HKZ oracle capped at dimension "
                         f"{lattice_core.DIM_CAP}")
    ints, den = integral_cols(cols)
    u = lattice_core._hkz_int(int_gram(ints)).transform()
    return [[Q(x, den) for x in c] for c in combine_cols(ints, u)], u


def _hkz_block(state, j, count):
    """HKZ transform of the state's block pi_j(b_j..b_{j+count-1}), from
    its Gram scaled by d[j] and divided by the gcd of its entries."""
    gram = state.projected_gram(j, count)
    g = gcd(*(x for row in gram for x in row))
    gram = [[x // g for x in row] for row in gram]
    return lattice_core._hkz_int(gram).transform()


def _projected_ints(state, ints, den, j, count):
    """pi_j(b_j..b_{j+count-1}) of the basis ints / den, times the lcm of
    the denominators of its entries, as integer vectors."""
    us = state.projected(ints, j, count)
    g = gcd(state.d[j] * den, *(x for v in us for x in v))
    return [[x // g for x in v] for v in us]


def _state(ints, transform):
    """Integral GSO of the integer columns ints, tracking per column its
    entries and then its column of the transform, so one column
    operation updates both."""
    return IntegralGSO(int_gram(ints), [list(c) + [row[j] for row in transform]
                                        for j, c in enumerate(ints)])


def _untrack(state, m, den, trace):
    """(Fraction columns, and the transform into trace)."""
    trace.transform = [list(r) for r in zip(*(v[m:] for v in state.vecs))]
    return [[Q(x, den) for x in v[:m]] for v in state.vecs]


def c1_bound_sq_ok(cols, b: int) -> bool:
    """Check ||c_1|| <= 2 b^((n-1)/(2(b-1)) + 3/2) covol^(1/n) exactly."""
    n = len(cols)
    ints, _ = integral_cols(cols)
    try:
        dn = IntegralGSO(int_gram(ints)).d[n]
    except ValueError:
        dn = 0           # dependent columns
    return _c1_bound_ok(sum(x * x for x in ints[0]), dn, n, b)


def _c1_bound_ok(d1, dn, n, b):
    """The bound of `c1_bound_sq_ok` on integer columns over den, from the
    integers d1 = ||den c_1||^2 and dn = det(den^2 G).  Raised to the
    power 2n(b-1) it reads ||c1||^(2n(b-1)) <= 4^(n(b-1)) b^(n(n-1) +
    3n(b-1)) det(G)^(b-1), and den^(2n(b-1)) cancels on both sides."""
    e = n * (b - 1)
    return d1 ** e <= 4 ** e * b ** (n * (n - 1) + 3 * e) * dn ** (b - 1)


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
    trace = ReductionTrace()
    state = _state(ints, int_identity(n))
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
    # reduced[k] is state.shears when block k was last left HKZ-reduced.
    # While no operation has run since, its HKZ transform is the identity:
    # `_hkz_int` fixes its own output, and the size reduction leaves the
    # projected block alone, since the block is size-reduced already.
    reduced = [None] * (n - b + 1)

    def one_tour():
        changed = False
        for k in range(0, n - b + 1):
            trace.hkz_calls += 1
            if reduced[k] != state.shears:
                u_blk = _hkz_block(state, k, b)
                if u_blk != ident_b:
                    changed = True
                    state.apply(k, u_blk)
            shears = state.shears
            state.size_reduce()
            if state.shears != shears:
                changed = True
            reduced[k] = state.shears
        return changed

    # Ends: a tour that changes nothing stops it, and past the cap so does
    # the first tour that meets the c_1 bound, which Hanrot-Pujol-Stehle
    # prove holds after O(n^3/b^2 log(...)) tours of exact-HKZ BKZ'.
    while True:
        changed = one_tour()
        trace.tours += 1
        if not changed:
            break
        if trace.tours >= cap and _c1_bound_ok(state.d[1], state.d[n], n, b):
            break
    return _untrack(state, m, den, trace), trace


def bkz_full(cols, cfg: BkzConfig):
    """Recursive BKZ' delivering ||c_j|| <= 2n b^(2n/b) lambda_n for all j.

    Applies BKZ' to the basis, then to each det^2-scaled projected tail
    block, and finishes with a global size reduction (the backward lift).
    """
    n = len(cols)
    b = cfg.blocksize
    cols, total_trace = bkz_prime(cols, cfg)
    if n == b:
        return cols, total_trace    # no tail, and BKZ' ends size-reduced
    ints, den = integral_cols(cols)
    m = len(ints[0])
    state = _state(ints, total_trace.transform)
    for j in range(1, n - b + 1):
        block = _projected_ints(state, [v[:m] for v in state.vecs], den, j, n - j)
        sub_cfg = BkzConfig(blocksize=b, tour_cap_constant=cfg.tour_cap_constant,
                            max_tours=cfg.max_tours)
        _, tr_sub = bkz_prime(block, sub_cfg)
        state.apply(j, tr_sub.transform)
        total_trace.hkz_calls += tr_sub.hkz_calls
    state.size_reduce()
    return _untrack(state, m, den, total_trace), total_trace


def full_bound_sq_ok(cols, b: int, lambda_n_sq: Fraction) -> bool:
    """Check ||c_j||^2b <= (2n)^2b * b^(4n) * lambda_n^2b for all j."""
    n = len(cols)
    rhs = Q(2 * n) ** (2 * b) * Q(b) ** (4 * n) * Q(lambda_n_sq) ** b
    for c in cols:
        if qlinalg.dot([Q(x) for x in c], [Q(x) for x in c]) ** b > rhs:
            return False
    return True
