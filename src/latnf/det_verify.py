"""Determinant stability under perturbation and the decide-equal-lattice
test (the certified verdict's pieces: from n, m, the entry error and
bounds on prod ||b_j||/lambda_j, lambda_1^2 and ||B||^2, without
||B^-1||), and the residue bracket feeding it.

`approx_rho` is the library's one residue bracket.  It evaluates Bach's
ERH-truncated Euler product with one kernel,
`euler_log_product`: a numpy sieve, the splitting type of quadratic
fields read from a Kronecker-character table mod |disc|, and one float
product of per-prime factors, each rounded once and multiplied chunk by
chunk in the order of a per-prime loop, then one logarithm, with its
float rounding bounded and checked against the bracket's slack."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import intmath
from .dyadic import Q, sqrt_bracket
from .ideal_arith import splitting_degrees
from .nf_core import NumberField
from .qlinalg import gram_matrix, mat_det


def epsilon_threshold(n: int, m: int, cond_product_upper: Fraction,
                      lambda1_sq_lower: Fraction,
                      norm_b_sq_upper: Fraction) -> Fraction:
    """The determinant-stability lemma's entrywise error budget, with
    ||B^-1||^2 <= n^(n+2) lambda_1^-2 prod (||b_j||/lambda_j)^2 inlined:
    2^-6 n^-(n+4) m^-1 (prod ||b_j||/lambda_j)^-2 lambda_1^2 / ||B||."""
    _, normb_up = sqrt_bracket(Q(norm_b_sq_upper), 64)
    return (Q(1, 64) * Q(1, n ** (n + 4)) * Q(1, m)
            * Q(cond_product_upper) ** -2 * Q(lambda1_sq_lower) / normb_up)


@dataclass
class DetVerdict:
    status: str                      # "certified" | "insufficient_precision"
    det_gram: Fraction               # det(B~^T B~), exact
    threshold: Fraction


def gram_det_interval(b_tilde_cols, entry_err: Fraction,
                      cond_product_upper: Fraction,
                      lambda1_sq_lower: Fraction,
                      norm_b_sq_upper: Fraction) -> DetVerdict:
    """Certify det(B~^T B~) in [7/8, 9/8] det(B^T B) whenever the
    entrywise error meets the lemma's budget."""
    cols = [[Q(x) for x in c] for c in b_tilde_cols]
    n = len(cols)
    m = len(cols[0])
    det = mat_det(gram_matrix(cols))
    eps = epsilon_threshold(n, m, cond_product_upper, lambda1_sq_lower,
                            norm_b_sq_upper)
    status = "certified" if Q(entry_err) <= eps else "insufficient_precision"
    return DetVerdict(status, det, eps)


def decide_equal_lattice(b_tilde_cols, d_value: Fraction) -> str:
    """Given an approximate basis of a sublattice L' of L and
    D in [3/4, 5/4] covol(L), decide 'equal' vs 'proper_sublattice' by
    comparing det(B~^T B~) against 2 D^2."""
    cols = [[Q(x) for x in c] for c in b_tilde_cols]
    det = mat_det(gram_matrix(cols))
    d_value = Q(d_value)
    return "equal" if det <= 2 * d_value * d_value else "proper_sublattice"


# ---------------------------------------------------------------------------
# Residue / regulator approximation

# Primes per chunk of the Euler product; bounds the memory of its factors.
_EULER_CHUNK = 1 << 14
# Added to the provable bracket's Bach error; covers the float rounding of
# log A(x), which euler_log_product bounds.
_FLOAT_SLACK_LOG = 1e-9
# 1/u for the unit roundoff u = 2^-53 of float64; a truncation x below it
# keeps p - 1, p and p + 1 exact in float64 for every prime p < x.
_INV_UNIT_ROUNDOFF = 1 << 53


@dataclass
class RhoBracket:
    rho0: float
    eta0: float             # approximates h_K * R_K
    lo: float
    hi: float
    detail: dict


def bach_error_log(disc: int, n: int, x: int) -> float:
    """Bach's ERH bound 8 (log|d| + n log x) / sqrt(x) on |log A(x) -
    log rho_K| for a degree-n field of discriminant d, plus the float
    slack `approx_rho` widens its bracket by."""
    return (8 * (math.log(abs(disc)) + n * math.log(x)) / math.sqrt(x)
            + _FLOAT_SLACK_LOG)


def _in_window(err: float) -> bool:
    """Whether a bracket of log-radius err fits the [3/4, 5/4] window."""
    return math.exp(err) <= 1.25


def bach_truncation(disc: int, n: int) -> int:
    """The least multiple of 1000 (at least 1000) at which `approx_rho`'s
    window test passes, for a degree-n field of discriminant disc.

    x doubles from 1000 until the test passes, then bisection between
    the last two rungs finds the least one; the bound falls with x for
    x >= 1000, where log x > 2, and the bisection keeps its invariant
    (the test fails at lo and passes at hi) whatever the float rounding
    does near the threshold.
    """
    def holds(k):
        return _in_window(bach_error_log(disc, n, 1000 * k))

    hi = 1
    while not holds(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return 1000 * hi


def approx_rho(field: NumberField, truncation: int = 100,
               roots_of_unity: int = 2) -> RhoBracket:
    """rho_0 in [3/4,5/4] rho_K and eta_0 in [3/4,5/4] h R.

    Evaluates Bach's truncated Euler product (`euler_log_product`, one
    float product of per-prime factors and its log) with the certified
    ERH bracket (`bach_error_log`), widened by a 1e-9 slack that must
    cover the log's float rounding, and reports failure when the
    truncation cannot reach the [3/4, 5/4] window.  The kernel's bound
    grows as 2 pi(x) u and passes 1e-9 near x = 76,984,000, where a
    RuntimeError is raised.  At `bach_truncation`'s x for a discriminant
    near 5 n^n the bound is 8.61e-10 at degree 11 (x = 65,640,000),
    which passes, and 1.24e-9 at degree 13 (x = 96,465,000), which
    raises.
    """
    if truncation < 100:
        raise ValueError("truncation must be >= 100")
    disc = abs(field.disc_field)
    err = bach_error_log(disc, field.n, truncation)
    if not _in_window(err):
        raise ValueError(
            f"truncation too small in provable mode: e^{err:.3f} > 5/4")
    log_a, rounding = euler_log_product(field, truncation)
    if rounding > _FLOAT_SLACK_LOG:
        raise RuntimeError(f"Euler-product rounding bound {rounding:.3g} "
                           f"exceeds the {_FLOAT_SLACK_LOG:g} slack")
    rho0 = math.exp(log_a)
    eta0 = rho0 * roots_of_unity * math.sqrt(disc) / (
        2 ** field.n_real * (2 * math.pi) ** field.n_cplx)
    return RhoBracket(rho0, eta0, rho0 * math.exp(-err), rho0 * math.exp(err),
                      {"bach_error_log": err, "x": truncation,
                       "float_rounding_log": rounding})


def euler_log_product(field: NumberField, x: int) -> tuple[float, float]:
    """(log A(x), bound on its float rounding error) for Bach's product
    A(x) = prod_{p < x} F_p, F_p = (1 - 1/p) / prod_{P | p, N(P) < x}
    (1 - 1/N(P)).

    Each F_p is rounded to float once, and the N factors are multiplied
    left to right, a chunk of primes at a time, by a sequential cumprod
    that carries the running product (never `np.prod`, whose reduction
    may reorder the products), so the result is the float a per-prime
    loop gives.  For quadratic fields the splitting type of an odd p is
    read from `_kronecker_table`, and F_p is one true division of exact
    integers: p/(p-1) if p splits, p/p if it ramifies, p/(p+1) if it is
    inert and p^2 < x, (p-1)/p if it is inert and p^2 >= x.  p = 2,
    discriminants with more residues than there are primes below x, and
    higher degrees ask `splitting_degrees` prime by prime and divide the
    exact integer numerator of F_p by its denominator.  IEEE division
    and multiplication are correctly rounded, so the bits do not depend
    on the CPU, and no logarithm is taken per prime.

    Rounding: each F_p is within relative u of its exact value (x < 2^53
    keeps p - 1, p and p + 1 exact in float64, and Python's integer true
    division rounds correctly), and each of the N - 1 products that are
    not by the carry's initial 1.0 adds one more relative u, u = 2^-53.
    So the float product P^ is P (1 + theta) with |theta| <= gamma_2N =
    2N u / (1 - 2N u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 3.1); every partial product lies between
    prod (1 - 1/p) and prod (p/(p-1))^(n-1) over p < x, far from
    underflow and overflow.  Then |log P^ - log P| <= -log(1 - gamma_2N)
    <= gamma_2N / (1 - gamma_2N).  `math.log` is assumed accurate to
    2 ulp, at most 4u relative, as glibc documents, so the returned L^
    is within 4u |log P^| <= 4u |L^| / (1 - 4u) of log P^.  The bound is
    the sum of the two, evaluated in rationals and rounded up to a float.
    """
    if x >= _INV_UNIT_ROUNDOFF:
        raise ValueError("Euler-product truncation must be below 2^53")
    if field.index_sq > 1 and min(intmath.factorint(field.index_sq)) < x:
        raise ValueError("index-divisor prime in the Euler product")
    primes = intmath.prime_sieve(x)
    chi = None
    if field.n == 2:
        disc = field.poly[1] ** 2 - 4 * field.poly[0]
        if abs(disc) <= len(primes):
            chi = _kronecker_table(disc)
    product = 1.0
    for start in range(0, len(primes), _EULER_CHUNK):
        chunk = primes[start:start + _EULER_CHUNK]
        if chi is None:
            factors = np.array([_prime_factor(field, p, x)
                                for p in chunk.tolist()])
        else:
            factors = _quadratic_factors(field, chi, chunk, x)
        product = float(np.cumprod(np.concatenate(([product], factors)))[-1])
    log_a = math.log(product)
    gamma = Fraction(2 * len(primes), _INV_UNIT_ROUNDOFF - 2 * len(primes))
    exact = (gamma / (1 - gamma)
             + 4 * abs(Fraction(log_a)) / (_INV_UNIT_ROUNDOFF - 4))
    bound = float(exact)
    if bound < exact:
        bound = math.nextafter(bound, math.inf)
    return log_a, bound


def _prime_factor(field: NumberField, p: int, x: int) -> float:
    """F_p of one prime p, from the exact integers of its numerator and
    denominator, rounded once."""
    num, den = p - 1, p
    for f, _e in splitting_degrees(field, p):
        nrm = p ** f
        if nrm < x:
            num, den = num * nrm, den * (nrm - 1)
    return num / den


def _quadratic_factors(field: NumberField, chi: np.ndarray,
                       primes: np.ndarray, x: int) -> np.ndarray:
    """F_p of a chunk of primes of a quadratic field, one int64 true
    division each."""
    sym = chi[primes % len(chi)]
    split = sym > 0
    near = (sym < 0) & (primes <= math.isqrt(x - 1))      # inert, p^2 < x
    far = (sym < 0) & ~near
    factors = (primes - far) / (primes - split + near)
    if primes[0] == 2:
        factors[0] = _prime_factor(field, 2, x)
    return factors


def _kronecker_table(disc: int) -> np.ndarray:
    """chi[r] = (disc/r), the Kronecker symbol, for 0 <= r < |disc|.

    For disc = b^2 - 4c = 0, 1 mod 4 it is a character mod |disc|, so an
    odd prime p splits in Z[x]/(x^2 + bx + c) when chi[p mod |disc|] = 1,
    ramifies when it is 0 and stays inert when it is -1.
    """
    m = abs(disc)
    chi_2 = 1 if disc % 8 == 1 else -1      # (disc/2), used for odd disc
    chi = np.zeros(m, dtype=np.int8)
    for r in range(1, m):
        if math.gcd(r, m) == 1:
            k = (r & -r).bit_length() - 1
            chi[r] = chi_2 ** k * intmath.jacobi(disc, r >> k)
    return chi
