"""`intmath.factorint` trial-divides only below `TRIAL_BOUND` and leaves
the cofactor to Miller-Rabin and Pollard rho.  These checks build inputs
of known factorization: seeded products of primes on both sides of the
bound, and p^2 and p^3 for primes p between the bound and 100,000, the
trial bound the function had before.  An alarm turns a hang of the
randomised split into a failure."""

import random
import signal
from collections import Counter

import pytest

from latnf import intmath
from latnf.intmath import TRIAL_BOUND, factorint

PRIMES = intmath.primes_below(100_000)
ABOVE = [p for p in PRIMES if p > TRIAL_BOUND]


def _alarm(signum, frame):
    raise TimeoutError("factorint did not finish")


@pytest.fixture(autouse=True)
def alarm():
    handler = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, handler)


def test_seeded_products():
    rng = random.Random("factorint-products")
    # primes far above the bound, at most one per product: Pollard rho
    # splits off the primes below 100,000 and is_prime certifies the rest
    large = [None, 10 ** 12 + 39, 2 ** 61 - 1]
    for _ in range(300):
        factors = Counter()
        for _ in range(rng.randrange(1, 6)):
            pool = rng.choice((PRIMES[:200], ABOVE))
            factors[rng.choice(pool)] += rng.randrange(1, 4)
        big = rng.choice(large)
        if big:
            factors[big] += 1
        n = 1
        for p, e in factors.items():
            n *= p ** e
        assert factorint(rng.choice((1, -1)) * n) == dict(factors)


def test_prime_powers_above_the_bound():
    rng = random.Random("factorint-powers")
    primes = [ABOVE[0], ABOVE[-1]] + rng.sample(ABOVE, 200)
    for p in primes:
        assert factorint(p * p) == {p: 2}
        assert factorint(p ** 3) == {p: 3}
        assert factorint(2 * 3 * p ** 3) == {2: 1, 3: 1, p: 3}
