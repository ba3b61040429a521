"""Integer number theory helpers: primality, factoring, the Jacobi symbol,
exact integer and rational roots.  `CapExceeded` lives here, at the
bottom of the import graph, so that every module can raise it."""

from __future__ import annotations

import random
from math import gcd, isqrt

import numpy as np

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
# draws of a randomised split (Pollard rho, Cantor-Zassenhaus) before
# CapExceeded; a Cantor-Zassenhaus draw splits with probability >= 1/2
RANDOM_TRIES = 64
# factorint trial-divides below this bound; Miller-Rabin and Pollard rho
# take the cofactor (on the benchmark's inputs a bound of 100,000 spent
# three times as long for the same factorizations)
TRIAL_BOUND = 1024


class CapExceeded(RuntimeError):
    """A retry or precision-doubling loop ran out of its rounds."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_sieve(bound: int) -> np.ndarray:
    """The primes p < bound as an int64 array (sieve of Eratosthenes over
    the odd numbers: slot i stands for 2i + 1, and slot 0 for 2)."""
    if bound <= 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(bound // 2, dtype=bool)
    for i in range(1, (isqrt(bound - 1) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = False
    # scaled in place: a concatenated or masked copy raises peak memory
    primes = np.flatnonzero(sieve).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def primes_below(bound: int) -> list[int]:
    """The primes p < bound as Python ints: callers raise them to powers,
    which would overflow int64."""
    return prime_sieve(bound).tolist()


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A proper factor of the composite n, by Floyd's cycle walk on
    x -> x^2 + c; a walk that closes its cycle modulo all of n at once
    fails, and the next draws a new c and start, up to RANDOM_TRIES."""
    for _ in range(RANDOM_TRIES):
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        # Ends: x_k mod n is eventually periodic, and once y = x_2k has
        # entered the cycle and k is a multiple of its length, x = y
        # and d = n.
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise CapExceeded(f"Pollard rho failed {RANDOM_TRIES} times")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: e}; n must be nonzero."""
    if n == 0:
        raise ValueError("factorint(0)")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 41
    while f * f <= n and f < TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n == 1:
        return out
    rng = random.Random(0xFAC7)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi needs odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def nth_root_floor(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1."""
    if n < 0:
        raise ValueError
    if n == 0:
        return 0
    if k == 1:
        return n
    # Newton on integers, seeded from the bit length
    r = 1 << -(-n.bit_length() // k)
    # Ends: r starts above the root and every pass that does not break
    # lowers the positive integer r (Newton from above on x^k - n).
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def rational_root_floor(x, k: int) -> int:
    """floor(x^(1/k)) for a nonnegative rational x: an integer r has
    r^k <= x exactly when r^k <= floor(x)."""
    from fractions import Fraction
    x = Fraction(x)
    if x < 0:
        raise ValueError
    return nth_root_floor(x.numerator // x.denominator, k)


def rational_root_bracket(x, k: int, prec: int):
    """(lo, hi) rationals with lo <= x^(1/k) <= hi, hi - lo <= 2^-prec."""
    from fractions import Fraction
    x = Fraction(x)
    if x < 0:
        raise ValueError
    scale = 1 << (prec + 2)
    scaled = (x.numerator * scale ** k) // x.denominator
    r = nth_root_floor(scaled, k)
    return Fraction(r, scale), Fraction(r + 1, scale)
