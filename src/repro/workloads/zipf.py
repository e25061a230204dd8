"""Zipfian key generation (Gray et al., SIGMOD '94 [14]).

YCSB's key popularity follows a Zipfian distribution; the paper uses
skew ``z = 0.3`` by default and ``z = 0.5`` for the storage-design grid
(§6.6).  This is the constant-time method from "Quickly Generating
Billion-Record Synthetic Databases": after an O(n) zeta precomputation,
each draw is O(1).

A *scrambled* variant spreads the hottest ranks over the key space with
a Fibonacci-style hash so hot keys are not physically clustered on the
same pages — matching YCSB's ScrambledZipfianGenerator.

Every generator draws one key with ``next()`` and a chunk of keys with
``next_many(count)``: the same values from the same RNG draws, in one
comprehension per chunk instead of a call (or three) per key.
"""

from __future__ import annotations

import functools
import random


@functools.lru_cache(maxsize=64)
def zeta(n: int, theta: float) -> float:
    """Finite zeta sum ``sum_{i=1..n} 1/i^theta``.

    O(n), and a pure function that every generator over the same key
    space repeats — the workload and its popularity sampler, cell after
    cell — so the last few sums are kept.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return sum(1.0 / i**theta for i in range(1, n + 1))


class ZipfianGenerator:
    """Draws ranks in ``[0, n)`` with Zipfian skew ``theta``.

    ``theta = 0`` degenerates to uniform; the generator special-cases it
    to avoid division by zero in the closed form.
    """

    def __init__(self, n: int, theta: float = 0.3, seed: int = 1) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if theta < 0 or theta >= 1:
            raise ValueError("theta must be in [0, 1)")
        self.n = n
        self.theta = theta
        self.rng = random.Random(seed)
        if theta > 0:
            self._zetan = zeta(n, theta)
            self._zeta2 = zeta(2, theta)
            self._alpha = 1.0 / (1.0 - theta)
            if n > 2:
                self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
                    1.0 - self._zeta2 / self._zetan
                )
            else:
                # With n <= 2 the first two branches of next() cover the
                # whole probability mass; eta is never used.
                self._eta = 0.0
            #: ``uz`` below this (and not below 1) draws rank 1.
            self._rank1_bound = 1.0 + 0.5**theta

    def next(self) -> int:
        """One rank draw; rank 0 is the most popular."""
        if self.theta == 0:
            return self.rng.randrange(self.n)
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._rank1_bound:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha) % self.n

    def next_many(self, count: int) -> list[int]:
        """``count`` draws in one pass: ``[self.next() for _ in
        range(count)]``, value for value, leaving the RNG where those
        calls would."""
        n = self.n
        if self.theta == 0:
            randrange = self.rng.randrange
            return [randrange(n) for _ in range(count)]
        zetan, bound = self._zetan, self._rank1_bound
        eta, alpha = self._eta, self._alpha
        random = self.rng.random
        return [0 if (uz := u * zetan) < 1.0 else 1 if uz < bound
                else int(n * (eta * u - eta + 1.0) ** alpha) % n
                for u in [random() for _ in range(count)]]


#: Knuth's multiplicative-hash constant (2^64 / golden ratio).
_FIB_HASH = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1


def scramble(rank: int, n: int) -> int:
    """Deterministically spread rank ``rank`` over ``[0, n)``."""
    return ((rank * _FIB_HASH) & _MASK_64) % n


class ScrambledZipfianGenerator:
    """Zipfian draws whose hot items are scattered across the key space."""

    def __init__(self, n: int, theta: float = 0.3, seed: int = 1) -> None:
        self._inner = ZipfianGenerator(n, theta, seed)
        self.n = n

    def next(self) -> int:
        return scramble(self._inner.next(), self.n)

    def next_many(self, count: int) -> list[int]:
        """:meth:`ZipfianGenerator.next_many` with each rank scrambled
        in the same pass (``scramble(0, n)`` is 0)."""
        inner, n = self._inner, self.n
        if inner.theta == 0:
            return [((rank * _FIB_HASH) & _MASK_64) % n
                    for rank in inner.next_many(count)]
        zetan, bound = inner._zetan, inner._rank1_bound
        eta, alpha = inner._eta, inner._alpha
        one = scramble(1, n)
        random = inner.rng.random
        return [0 if (uz := u * zetan) < 1.0 else one if uz < bound
                else (((int(n * (eta * u - eta + 1.0) ** alpha) % n)
                       * _FIB_HASH) & _MASK_64) % n
                for u in [random() for _ in range(count)]]


class UniformGenerator:
    """Uniform draws over ``[0, n)`` with the same interface."""

    def __init__(self, n: int, seed: int = 1) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.rng = random.Random(seed)

    def next(self) -> int:
        return self.rng.randrange(self.n)

    def next_many(self, count: int) -> list[int]:
        """``[self.next() for _ in range(count)]`` in one comprehension."""
        randrange, n = self.rng.randrange, self.n
        return [randrange(n) for _ in range(count)]


def nurand(rng: random.Random, a: int, x: int, y: int, c: int | None = None) -> int:
    """TPC-C's non-uniform random function NURand(A, x, y) [35]."""
    if c is None:
        c = a // 2
    return (((rng.randrange(a + 1) | rng.randint(x, y)) + c) % (y - x + 1)) + x
