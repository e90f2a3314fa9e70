"""Driving sequences: cyclic, i.i.d. random, deterministic disjunctive
enumeration, and fixed custom sequences, plus prefix audits.

Symbols are 1-based integers in ``1..N``. Random streams use numpy's Philox
counter-based 64-bit generator keyed by the seed; a symbol is drawn per
uniform double by inverse-CDF lookup on the cumulative weights, so a
``(seed, weights)`` pair always reproduces the same stream.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clouds import Report, _integral, count_of
from .errors import DriverExhaustedError, SymbolRangeError


@dataclass(frozen=True)
class Cyclic:
    """``i_n = permutation[(n - 1) mod N]`` for a fixed permutation of 1..N."""

    permutation: tuple

    def __post_init__(self):
        perm = tuple(_integral(self.permutation, "permutation", ndim=1))
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
        if len(w) == 0 or not all(math.isfinite(x) and x > 0.0 for x in w):
            raise ValueError(f"weights must be finite and strictly positive, got {w!r}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "seed", count_of(self.seed, "seed"))
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
        n = count_of(self.n_symbols, "alphabet size", low=1)
        if n >= 1 << 63:
            raise ValueError(f"alphabet size must lie in 1..2**63 - 1, got {n}")
        object.__setattr__(self, "n_symbols", n)

    def stream(self):
        return _EnumerationStream(self)


@dataclass(frozen=True)
class Custom:
    """A fixed finite sequence; replays once, then raises on exhaustion."""

    symbols: tuple
    alphabet_size: int = None

    def __post_init__(self):
        syms = tuple(_integral(self.symbols, "symbols", ndim=1))
        n = max(syms, default=1) if self.alphabet_size is None \
            else count_of(self.alphabet_size, "alphabet size", low=1)
        check_symbols(np.asarray(syms, dtype=np.int64), n)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "alphabet_size", n)

    @property
    def n_symbols(self):
        return self.alphabet_size

    def stream(self):
        return _CustomStream(self.symbols)


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
    """Symbols worked out from their positions: words of length ``L`` start at
    ``enumeration_prefix_length(L - 1, N)``, and word ``w`` of that length is
    the ``L`` base-N digits of ``w``, plus one. The stream keeps the length
    of the words at its position and where they start, so a read walks only
    the lengths it covers."""

    def __init__(self, spec):
        super().__init__(spec)
        self._words = 1, 0  # a word length and the position of its first symbol

    def take_upto(self, n):
        base = self.spec.n_symbols
        start, stop = self.position, self.position + n
        pieces = []
        length, first = self._words
        while True:
            end = first + length * base ** length
            lo, hi = max(start, first) - first, min(stop, end) - first
            if lo < hi:
                words = np.arange(lo // length, (hi - 1) // length + 1, dtype=np.int64)
                powers = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
                digits = (words[:, None] // powers % base + 1).ravel()
                pieces.append(digits[lo % length:lo % length + hi - lo])
            if end > stop:
                break
            length, first = length + 1, end
        self._words = length, first
        self.position = stop
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


class _CustomStream(SymbolStream):
    """A list, tuple or numpy array of symbols, read by slicing."""

    def take_upto(self, n):
        out = np.asarray(self.spec[self.position:self.position + n], dtype=np.int64)
        self.position += len(out)
        return out


def check_symbols(symbols, n_symbols):
    """The int64 array ``symbols``, checked to lie in ``1..n_symbols``; raises
    :class:`SymbolRangeError` for the first symbol outside."""
    bad = np.flatnonzero((symbols < 1) | (symbols > n_symbols))
    if len(bad):
        raise SymbolRangeError(int(symbols[bad[0]]), n_symbols)
    return symbols


def symbol_blocks(driver, n, n_symbols, size=None):
    """Yield the first ``n`` symbols of a driver as int64 blocks of at most
    ``size`` symbols (default: one block), each checked to lie in
    ``1..n_symbols``.

    The driver is a spec (read from a fresh stream), a :class:`SymbolStream`
    (read from where it stands), or a list, tuple or numpy array (read by
    slicing); anything else raises ``TypeError``. Nothing is read before the
    first block. A driver that ends early raises
    :class:`DriverExhaustedError` after its last, short block.
    """
    if isinstance(driver, DriverSpec):
        stream = driver.stream()
    elif isinstance(driver, SymbolStream):
        stream = driver
    elif isinstance(driver, (list, tuple, np.ndarray)):
        stream = _CustomStream(driver)
    else:
        raise TypeError(f"a driver is a spec, a stream, or a list, tuple or numpy array "
                        f"of symbols, not {type(driver).__name__}")
    size = size or max(n, 1)
    for start in range(0, n, size):
        want = min(size, n - start)
        block = check_symbols(stream.take_upto(want), n_symbols)
        yield block
        if len(block) < want:
            raise DriverExhaustedError(f"driver exhausted after {start + len(block)} "
                                       f"of {n} requested symbols")


def generate(spec, n):
    """The first ``n`` symbols of the driver as an int64 array."""
    return spec.stream().take(count_of(n, "symbol count"))


@dataclass(frozen=True)
class DisjunctivityReport(Report):
    """Which words of a fixed length occur as contiguous windows of a prefix."""

    window_length: int
    alphabet_size: int
    total_words: int
    found: int
    missing_count: int
    missing: tuple  # first 20 missing words, lexicographic
    prefix_length: int
    warning: str
    complete: bool


@dataclass(frozen=True)
class RepetitionReport(Report):
    """Occurrence counts per symbol over a prefix; absent symbols are flagged."""

    # written as {"1": the count of symbol 1, ...}
    counts: tuple = field(metadata={"json": lambda c: {str(i + 1): n for i, n in enumerate(c)}})
    absent: tuple
    prefix_length: int


def _infer_alphabet(seq, alphabet_size):
    """The prefix as a checked int64 array, and its alphabet size."""
    seq = np.asarray(seq if isinstance(seq, np.ndarray) else list(seq), dtype=np.int64)
    if alphabet_size is None and not len(seq):
        raise ValueError("alphabet size is required for an empty sequence")
    n = int(seq.max()) if alphabet_size is None else count_of(alphabet_size, "alphabet size", 1)
    return check_symbols(seq, n), n


def check_disjunctive(seq, window_length, alphabet_size=None):
    """Audit a finite prefix: which words of length ``window_length`` occur as
    contiguous windows. Missing words are listed in lexicographic order,
    truncated to the first 20. Windows are read as base-N integer codes, which
    run over the words in lexicographic order; the cost is O(prefix + N^m)."""
    m = count_of(window_length, "window length", low=1)
    seq, n = _infer_alphabet(seq, alphabet_size)
    total = n ** m
    if total > 10_000_000:
        raise ValueError(f"window audit would enumerate {total} words; pick a smaller m")
    powers = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    seen = np.zeros(total, dtype=bool)
    warning = None
    if len(seq) < m:
        warning = f"sequence of length {len(seq)} is shorter than the window {m}"
    else:
        seen[sliding_window_view(seq - 1, m) @ powers] = True
    missing = np.flatnonzero(~seen)
    return DisjunctivityReport(
        window_length=m,
        alphabet_size=n,
        total_words=total,
        found=total - len(missing),
        missing_count=len(missing),
        missing=tuple(map(tuple, (missing[:20, None] // powers % n + 1).tolist())),
        prefix_length=len(seq),
        warning=warning,
        complete=len(missing) == 0,
    )


def check_repetitive(seq, alphabet_size):
    """Exact per-symbol occurrence counts over a prefix."""
    seq, n = _infer_alphabet(seq, alphabet_size)
    counts = np.bincount(seq, minlength=n + 1)[1:]
    absent = np.flatnonzero(counts == 0) + 1
    return RepetitionReport(tuple(counts.tolist()), tuple(absent.tolist()), len(seq))


def enumeration_prefix_length(window_length, alphabet_size):
    """Prefix length after which the enumeration has emitted every word of
    length up to ``window_length``: sum of k * N^k for k <= window_length."""
    n = count_of(alphabet_size, "alphabet size", low=1)
    return sum(k * n ** k for k in range(1, count_of(window_length, "window length") + 1))


def describe_driver(driver):
    """A JSON-ready record of a driver: ``{"kind": <class name>, <its fields>,
    "n_symbols": ...}`` for a spec, tuples written as lists. A finite sequence
    (list, tuple or numpy array) is recorded as the :class:`Custom` spec of
    its symbols. A sequence that is no valid ``Custom`` (a symbol below 1
    past the part a run read) and a stream are recorded by type name only."""
    if driver is None:
        return driver
    if isinstance(driver, (list, tuple, np.ndarray)):
        with contextlib.suppress(SymbolRangeError):
            driver = Custom(tuple(driver))
    if not isinstance(driver, DriverSpec):
        return {"kind": type(driver).__name__}
    return {"kind": type(driver).__name__,
            **{k: list(v) if isinstance(v, tuple) else v for k, v in asdict(driver).items()},
            "n_symbols": driver.n_symbols}


# Field metadata of Report: a driver written by describe_driver.
DRIVER = {"json": describe_driver}
