"""Driving sequences: cyclic, i.i.d. random, deterministic disjunctive
enumeration, and fixed custom sequences, plus prefix audits.

Symbols are 1-based integers in ``1..N``. Random streams use numpy's Philox
counter-based 64-bit generator keyed by the seed; a symbol is drawn per
uniform double by inverse-CDF lookup on the cumulative weights, so a
``(seed, weights)`` pair always reproduces the same stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DriverExhaustedError, SymbolRangeError


@dataclass(frozen=True)
class Cyclic:
    """``i_n = permutation[(n - 1) mod N]`` for a fixed permutation of 1..N."""

    permutation: tuple

    def __post_init__(self):
        perm = tuple(int(p) for p in self.permutation)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"not a permutation of 1..{len(perm)}: {perm}")
        object.__setattr__(self, "permutation", perm)

    @property
    def n_symbols(self):
        return len(self.permutation)

    def stream(self):
        return _CyclicStream(self)


@dataclass(frozen=True)
class IidRandom:
    """Independent draws from fixed strictly positive weights (sum 1)."""

    seed: int
    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) == 0 or any(x <= 0.0 for x in w):
            raise ValueError("weights must be strictly positive")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, seed, n_symbols):
        return cls(seed, (1.0 / n_symbols,) * n_symbols)

    @property
    def n_symbols(self):
        return len(self.weights)

    def stream(self):
        return _IidStream(self)


@dataclass(frozen=True)
class DisjunctiveEnumeration:
    """All words over 1..N concatenated in length-then-lexicographic order:
    1, 2, ..., N, 11, 12, ..., NN, 111, ...  Deterministic and disjunctive."""

    n_symbols: int

    def __post_init__(self):
        if int(self.n_symbols) < 1:
            raise ValueError("alphabet size must be at least 1")
        object.__setattr__(self, "n_symbols", int(self.n_symbols))

    def stream(self):
        return _EnumerationStream(self)


@dataclass(frozen=True)
class Custom:
    """A fixed finite sequence; replays once, then raises on exhaustion."""

    symbols: tuple
    alphabet_size: int = None

    def __post_init__(self):
        syms = tuple(int(s) for s in self.symbols)
        n = self.alphabet_size
        n = max(syms, default=1) if n is None else int(n)
        for s in syms:
            if not 1 <= s <= n:
                raise SymbolRangeError(s, n)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "alphabet_size", n)

    @property
    def n_symbols(self):
        return self.alphabet_size

    def stream(self):
        return _CustomStream(self)


#: Driver variants.
DriverSpec = (Cyclic, IidRandom, DisjunctiveEnumeration, Custom)


class SymbolStream:
    """Stateful symbol producer. Single-owner: not meant to be shared across
    threads. Two streams built from equal specs yield identical output."""

    def __init__(self, spec):
        self.spec = spec
        self.position = 0

    def next(self):
        return int(self.take(1)[0])

    def take(self, n):
        """Exactly ``n`` symbols as an int64 array; raises on exhaustion."""
        out = self.take_upto(n)
        if len(out) < n:
            raise DriverExhaustedError(
                f"driver exhausted after {self.position} symbols ({n - len(out)} short)"
            )
        return out

    def take_upto(self, n):
        raise NotImplementedError


class _CyclicStream(SymbolStream):
    def take_upto(self, n):
        perm = np.asarray(self.spec.permutation, dtype=np.int64)
        idx = (self.position + np.arange(n)) % len(perm)
        self.position += n
        return perm[idx]


class _IidStream(SymbolStream):
    def __init__(self, spec):
        super().__init__(spec)
        self._rng = np.random.Generator(np.random.Philox(spec.seed))
        cum = np.cumsum(np.asarray(spec.weights, dtype=float))
        cum[-1] = 1.0
        self._cum = cum

    def take_upto(self, n):
        u = self._rng.random(n)
        self.position += n
        return np.searchsorted(self._cum, u, side="right").astype(np.int64) + 1


class _EnumerationStream(SymbolStream):
    def __init__(self, spec):
        super().__init__(spec)
        self._length = 1
        self._index = 0
        self._buffer = []

    def _next_word(self):
        n = self.spec.n_symbols
        digits = []
        w = self._index
        for _ in range(self._length):
            digits.append(w % n + 1)
            w //= n
        digits.reverse()
        self._index += 1
        if self._index == n ** self._length:
            self._index = 0
            self._length += 1
        return digits

    def take_upto(self, n):
        buf = self._buffer
        while len(buf) < n:
            buf.extend(self._next_word())
        out = np.asarray(buf[:n], dtype=np.int64)
        del buf[:n]
        self.position += n
        return out


class _CustomStream(SymbolStream):
    def take_upto(self, n):
        syms = self.spec.symbols
        out = np.asarray(syms[self.position:self.position + n], dtype=np.int64)
        self.position += len(out)
        return out


class _IterableStream(SymbolStream):
    """A stream over any finite or infinite integer iterable."""

    def __init__(self, symbols):
        super().__init__(symbols)
        self._iter = iter(symbols)

    def take_upto(self, n):
        out = np.fromiter(itertools.islice(self._iter, n), dtype=np.int64)
        self.position += len(out)
        return out


def symbol_blocks(driver, n, n_symbols, size=None):
    """Yield the first ``n`` symbols of a driver as int64 blocks of at most
    ``size`` symbols (default: one block), each checked to lie in
    ``1..n_symbols``.

    The driver is a spec (read from a fresh stream), a :class:`SymbolStream`
    (read from where it stands), or any finite or infinite integer iterable,
    numpy arrays included. Nothing is read before the first block. A driver
    that ends early raises :class:`DriverExhaustedError` after its last,
    short block.
    """
    if isinstance(driver, DriverSpec):
        stream = driver.stream()
    elif isinstance(driver, SymbolStream):
        stream = driver
    else:
        stream = _IterableStream(driver)
    size = size or max(n, 1)
    for start in range(0, n, size):
        want = min(size, n - start)
        block = stream.take_upto(want)
        if len(block) and (block.min() < 1 or block.max() > n_symbols):
            raise SymbolRangeError(int(block[(block < 1) | (block > n_symbols)][0]), n_symbols)
        yield block
        if len(block) < want:
            raise DriverExhaustedError(f"driver exhausted after {start + len(block)} "
                                       f"of {n} requested symbols")


def generate(spec, n):
    """The first ``n`` symbols of the driver as an int64 array."""
    if n < 0:
        raise ValueError("symbol count must be nonnegative")
    return spec.stream().take(n)


@dataclass(frozen=True)
class DisjunctivityReport:
    """Which words of a fixed length occur as contiguous windows of a prefix."""

    window_length: int
    alphabet_size: int
    total_words: int
    found: int
    missing_count: int
    missing: tuple  # first 20 missing words, lexicographic
    prefix_length: int
    warning: str = None

    @property
    def complete(self):
        return self.missing_count == 0

    def to_dict(self):
        return {
            "window_length": self.window_length,
            "alphabet_size": self.alphabet_size,
            "total_words": self.total_words,
            "found": self.found,
            "missing_count": self.missing_count,
            "missing": [list(w) for w in self.missing],
            "prefix_length": self.prefix_length,
            "complete": self.complete,
            "warning": self.warning,
        }


@dataclass(frozen=True)
class RepetitionReport:
    """Occurrence counts per symbol over a prefix; absent symbols are flagged."""

    counts: tuple
    absent: tuple
    prefix_length: int

    def to_dict(self):
        return {
            "counts": {str(i + 1): c for i, c in enumerate(self.counts)},
            "absent": list(self.absent),
            "prefix_length": self.prefix_length,
        }


def _infer_alphabet(seq, alphabet_size):
    if alphabet_size is not None:
        n = int(alphabet_size)
    elif len(seq):
        n = int(max(seq))
    else:
        raise ValueError("alphabet size is required for an empty sequence")
    for s in seq:
        if not 1 <= s <= n:
            raise SymbolRangeError(int(s), n)
    return n


def check_disjunctive(seq, window_length, alphabet_size=None):
    """Audit a finite prefix: which words of length ``window_length`` occur as
    contiguous windows. Missing words are listed in lexicographic order,
    truncated to the first 20."""
    if window_length < 1:
        raise ValueError("window length must be at least 1")
    seq = [int(s) for s in seq]
    n = _infer_alphabet(seq, alphabet_size)
    m = int(window_length)
    total = n ** m
    if total > 10_000_000:
        raise ValueError(f"window audit would enumerate {total} words; pick a smaller m")
    warning = None
    if len(seq) < m:
        warning = f"sequence of length {len(seq)} is shorter than the window {m}"
        seen = set()
    else:
        seen = {tuple(seq[i:i + m]) for i in range(len(seq) - m + 1)}
    missing_count = 0
    missing = []
    for word in itertools.product(range(1, n + 1), repeat=m):
        if word not in seen:
            missing_count += 1
            if len(missing) < 20:
                missing.append(word)
    return DisjunctivityReport(
        window_length=m,
        alphabet_size=n,
        total_words=total,
        found=total - missing_count,
        missing_count=missing_count,
        missing=tuple(missing),
        prefix_length=len(seq),
        warning=warning,
    )


def check_repetitive(seq, alphabet_size):
    """Exact per-symbol occurrence counts over a prefix."""
    seq = [int(s) for s in seq]
    n = _infer_alphabet(seq, alphabet_size)
    counts = np.bincount(np.asarray(seq, dtype=np.int64), minlength=n + 1)[1:]
    absent = tuple(int(i + 1) for i, c in enumerate(counts) if c == 0)
    return RepetitionReport(tuple(int(c) for c in counts), absent, len(seq))


def enumeration_prefix_length(window_length, alphabet_size):
    """Prefix length after which the enumeration has emitted every word of
    length up to ``window_length``: sum of k * N^k for k <= window_length."""
    n = int(alphabet_size)
    return sum(k * n ** k for k in range(1, int(window_length) + 1))
