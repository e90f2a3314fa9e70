"""Iterated function systems of nonexpansive generators: orbit evolution, the
Hutchinson operator on finite clouds, and Lipschitz diagnostics for
composition words.

A generator is a set of :mod:`geometry`, standing for the metric projection
onto it, or an :class:`AffineMap` (see ``MapSpec``).

Symbols are 1-based: the driver value ``i`` selects ``maps[i - 1]``. A word
``(u_1, ..., u_l)`` denotes the composition that applies ``u_1`` first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clouds, drivers, geometry
from .errors import DegenerateTreeError, DimensionMismatchError, GeometryValidationError

# Affine generators may exceed spectral norm 1 by at most this much, absorbing
# rounding in user-supplied matrices.
NONEXPANSIVE_SLACK = 1e-9

# Pairs closer than this carry no usable Lipschitz quotient.
DEGENERATE_PAIR_TOL = 1e-12

# Steps between two looks at the orbit once it is this long: the stop test
# of a caller sees the orbit in blocks of this many steps, and a
# kernel-stepped orbit tests for a revisited point at each multiple of it.
STEP_BLOCK = 256

# Steps before the orbit's first test for a revisited point. The orbit is
# stepped in pieces as long as the orbit so far, so the tests double from
# here up to STEP_BLOCK: orbits that settle on a few points revisit one
# within a few steps, and a kernel step costs about twenty table lookups.
FIRST_LOOK = 16

# Symbols read from a driver at a time by run_orbit and kaczmarz.solve; a
# multiple of STEP_BLOCK, so the stop test's blocks do not depend on it.
# Every piece of the orbit ends at the end of a symbol block.
SYMBOL_BLOCK = 4096


def spectral_norm(matrix):
    """Largest singular value: the operator 2-norm, by SVD."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=float), 2))


@dataclass(frozen=True, eq=False)
class AffineMap:
    """``x -> matrix @ x + shift`` with spectral norm of ``matrix`` at most
    ``1 + NONEXPANSIVE_SLACK`` (validated at construction)."""

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        s = geometry.as_vector(self.shift, what="affine shift")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GeometryValidationError(f"affine matrix must be square, got {m.shape}")
        if m.shape[0] != s.shape[0]:
            raise DimensionMismatchError(s.shape[0], m.shape[0], "affine matrix")
        if not np.all(np.isfinite(m)):
            raise GeometryValidationError("affine matrix must be finite")
        norm = spectral_norm(m)
        if norm > 1.0 + NONEXPANSIVE_SLACK:
            raise GeometryValidationError(
                f"affine map is expansive: spectral norm {norm:.12g} > 1"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)

    @property
    def dim(self):
        return self.shift.shape[0]

    def kernel(self, p, out=None):
        """Unvalidated image of ``(d,)`` or ``(k, d)`` float64 points."""
        if p.ndim == 1:
            return np.add(self.matrix @ p, self.shift, out=out)
        return np.add(p @ self.matrix.T, self.shift, out=out)

    def apply(self, x):
        return self.kernel(geometry._as_points(x, self.dim))

    def linear_part(self):
        return self.matrix


#: Generator variants accepted by IFSystem: the sets of :mod:`geometry`, each
#: the projection onto itself, and affine maps. Each has ``dim``; ``apply``,
#: which validates its input; ``kernel``, the same arithmetic unvalidated,
#: which orbit steps use, so orbit points equal repeated ``apply`` bit for
#: bit; and ``linear_part()``, the matrix of an affine generator or ``None``.
#: ``kernel(p, out=None)`` writes the image into ``out`` when given and
#: returns it; ``out`` must not alias ``p``.
MapSpec = (geometry.Hyperplane, geometry.AffineSubspace, geometry.ConvexBody, AffineMap)


def HyperplaneProjection(plane):
    """The projection onto a :class:`geometry.Hyperplane`: the plane."""
    return geometry._checked(plane, geometry.Hyperplane, "a hyperplane")


def SubspaceProjection(subspace):
    """The projection onto a :class:`geometry.AffineSubspace`: the subspace."""
    return geometry._checked(subspace, geometry.AffineSubspace, "an affine subspace")


def ConvexProjection(body):
    """The projection onto a halfspace, ball or box: the body."""
    return geometry._checked(body, geometry.ConvexBody, "a convex body")


@dataclass(frozen=True, eq=False)
class IFSystem:
    """A finite tuple of nonexpansive generators acting on R^dim."""

    maps: tuple
    dim: int

    def __post_init__(self):
        maps = tuple(self.maps)
        if len(maps) == 0:
            raise GeometryValidationError("an IFS needs at least one generator")
        for k, m in enumerate(maps):
            if not isinstance(m, MapSpec):
                raise GeometryValidationError(f"map {k + 1} is not a generator: {type(m).__name__}")
            if m.dim != self.dim:
                raise DimensionMismatchError(self.dim, m.dim, f"map {k + 1}")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def n_maps(self):
        return len(self.maps)


@dataclass(frozen=True, eq=False)
class Orbit:
    """Points ``x_0 .. x_n`` together with the driving symbols ``i_1 .. i_n``
    that produced them (``points[k+1] = f_{symbols[k]}(points[k])``)."""

    points: np.ndarray
    symbols: np.ndarray

    def __post_init__(self):
        pts = clouds.points_of(self.points, what="orbit points")
        syms = np.asarray(self.symbols, dtype=np.int64)
        if syms.ndim != 1 or len(syms) != len(pts) - 1:
            raise GeometryValidationError("orbit needs exactly one symbol per step")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "symbols", syms)

    @property
    def n_steps(self):
        return len(self.symbols)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def x0(self):
        return self.points[0]

    def tail(self, burn_in):
        return self.points[burn_in:]


def symbols_from(driver, n, n_symbols):
    """The first ``n`` symbols of a driver (see :func:`drivers.symbol_blocks`)
    as one int64 array."""
    blocks = list(drivers.symbol_blocks(driver, n, n_symbols))
    return blocks[0] if blocks else np.empty(0, dtype=np.int64)


def apply_map(system, symbol, x):
    """One step ``f_symbol(x)`` of the system."""
    drivers.check_symbols(np.array([symbol], dtype=np.int64), system.n_maps)
    return system.maps[symbol - 1].apply(geometry.as_vector(x, dim=system.dim))


def _iterate(system, x0, driver, n, stop=None):
    """The orbit loop: step from ``x0`` through at most ``n`` symbols of
    ``driver``, read ``SYMBOL_BLOCK`` at a time by
    :func:`drivers.symbol_blocks`, which checks them to lie in ``1..n_maps``.

    ``stop``, when given, is a block predicate: it takes a ``(k, d)`` block of
    orbit points and returns the index of the first point at which the orbit
    ends, or ``None``. It sees ``x0`` first, as a ``(1, d)`` block, and then
    the new points of each step block once all of them are stepped; the
    steps after the stopping point are dropped. Step blocks are the symbol
    blocks cut into ``STEP_BLOCK`` steps, however the orbit was stepped. It
    must keep no reference to the block, a view of buffers that later grow
    in place.

    Without ``stop`` the buffers hold all ``n`` steps from the start; with it
    they grow as the orbit is stepped, so memory follows the steps run. Steps
    call the generators' kernels without validation, each writing its image
    straight into the point's row of the buffer; callers validate ``x0`` and
    the symbols. The current point is a view of its row, taken at the start
    of each piece, after any growth, so no view of the buffers outlives one.

    The orbit is stepped in pieces, each as long as the orbit so far but at
    least ``FIRST_LOOK`` steps, and ending at the end of its symbol block. A
    kernel piece calls the kernels and also ends at the next multiple of
    ``STEP_BLOCK``. Unless it is the orbit's last, it then tests whether the
    point just reached was visited since the last multiple of ``STEP_BLOCK``,
    other than by repeating the last step. On a hit the orbit may be running
    on a finite set of floats: those points become a :class:`_StateTable`,
    which steps the next pieces, each running at least to the next multiple
    of ``STEP_BLOCK``, until one meets more new transitions than known ones.
    So the tests come after steps 16, 32, 64, 128 and then every
    ``STEP_BLOCK`` kernel steps, and table pieces double. A kernel is a
    function of its input's bits and every table entry is a kernel's own
    image, so the orbit is the same bit for bit.
    """
    kernels = [m.kernel for m in system.maps]
    size = n if stop is None else 0
    pts = np.empty((size + 1, system.dim))
    syms = np.empty(size, dtype=np.int64)
    pts[0] = x0
    if stop is not None and stop(pts[:1]) is not None:
        return _used(pts, syms, 0)
    k = seen = 0
    table = None
    for block in drivers.symbol_blocks(driver, n, system.n_maps, SYMBOL_BLOCK):
        first, last = k, k + len(block)
        while k < last:
            since = k - k % STEP_BLOCK
            # as long as the orbit so far; a kernel piece ends at the next
            # multiple of STEP_BLOCK, and a table piece runs at least to it
            reach = min if table is None else max
            end = min(last, reach(k + max(k, FIRST_LOOK), since + STEP_BLOCK))
            if end > size:
                # At least double, up to n, in place, which frees the old memory.
                size = min(n, max(end, 2 * size))
                pts.resize((size + 1, system.dim), refcheck=False)
                syms.resize(size, refcheck=False)
            part = block[k - first:end - first]
            syms[k:end] = part
            rows = pts[k:end + 1]
            if table is not None:
                if not table.step(part, rows):
                    table = None
            else:
                x = rows[0]
                for step, row in zip([kernels[i] for i in (part - 1).tolist()], rows[1:]):
                    x = step(x, row)
                # pts[end - 1] is left out: a last step that maps its input to
                # itself (an idempotent map, repeated) closes no cycle
                if end < n and (pts[since:end - 1] == pts[end]).all(1).any():
                    table = _StateTable(kernels, pts[since:end + 1], syms[since:end])
            k = end
            # every complete step block, and the rest at the symbol block's end
            while stop is not None and seen < k and (k - seen >= STEP_BLOCK or k == last):
                window = pts[seen + 1:min(k, seen + STEP_BLOCK) + 1]
                found = stop(window)
                if found is not None:
                    return _used(pts, syms, seen + 1 + found)
                seen += len(window)
    return _used(pts, syms, k)


class _StateTable:
    """The transitions ``(state, symbol) -> state`` seen so far on an orbit,
    for stepping it without calling a kernel where it has been before.

    A state is a distinct point, keyed by its exact bytes (so ``-0.0`` and
    ``0.0`` are different states), and stored once in ``states``, which grows
    in place by doubling. ``next[state][i]`` is the state that ``kernels[i]``
    maps ``state`` to, or ``None`` until the orbit takes that step.
    """

    def __init__(self, kernels, points, symbols):
        self.kernels = kernels
        self.ids = {}
        self.next = []
        self.states = np.empty(points.shape)
        path = [self._add(p) for p in points]
        for state, i, image in zip(path, (symbols - 1).tolist(), path[1:]):
            self.next[state][i] = image
        self.current = path[-1]

    def _add(self, point):
        """The state of ``point``, added if it is new."""
        key = point.tobytes()
        state = self.ids.get(key)
        if state is None:
            state = self.ids[key] = len(self.next)
            if state == len(self.states):
                self.states.resize((2 * state, self.states.shape[1]), refcheck=False)
            self.states[state] = point
            self.next.append([None] * len(self.kernels))
        return state

    def step(self, symbols, rows):
        """Step from the current state, the point ``rows[0]``, through the
        symbols, and write the points into ``rows[1:]``: one list lookup per
        step, then one gather of the states' rows. A transition not in the
        table is a kernel's image of the stored state. Returns whether
        the table is still worth keeping: no more new transitions than known
        ones."""
        transitions = self.next
        state = self.current
        path = []
        visit = path.append
        misses = 0
        for i in (symbols - 1).tolist():
            image = transitions[state][i]
            if image is None:
                misses += 1
                image = transitions[state][i] = self._add(self.kernels[i](self.states[state]))
            visit(image)
            state = image
        self.states.take(np.fromiter(path, np.intp, len(path)), axis=0, out=rows[1:])
        self.current = state
        return 2 * misses <= len(path)


def _used(pts, syms, k):
    """The orbit of the first ``k`` steps. No view of the buffers is used
    after this, so they shrink in place: no unused rows stay alive and no
    second copy is made."""
    pts.resize((k + 1, pts.shape[1]), refcheck=False)
    syms.resize(k, refcheck=False)
    return Orbit(pts, syms)


def run_orbit(system, x0, driver, n):
    """Iterate the system for ``n`` steps from ``x0`` under the given driver:
    a spec, a stream, or any integer sequence (see
    :func:`drivers.symbol_blocks`), read ``SYMBOL_BLOCK`` symbols at a time.

    Deterministic: repeated calls with equal inputs reproduce the points bit
    for bit.
    """
    start = geometry.as_vector(x0, dim=system.dim)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    return _iterate(system, start, driver, n)


def hutchinson(system, cloud):
    """One application of ``S -> union_i f_i(S)`` on a finite cloud.

    The images, generator by generator, are merged by greedy thinning at
    ``clouds.DEDUP_TOL``: the only step of the lab that makes points
    coincide. No closure is taken.
    """
    pts = clouds.points_of(cloud, system.dim)
    images = np.vstack([m.apply(pts) for m in system.maps])
    return clouds.PointCloud(clouds.greedy_thin(images, clouds.DEDUP_TOL))


def validate_word(system, word):
    """The word as an int64 array, checked to be nonempty and in range."""
    syms = np.array([int(u) for u in word], dtype=np.int64)
    if not len(syms):
        raise ValueError("composition word must be nonempty")
    return drivers.check_symbols(syms, system.n_maps)


def composition_lipschitz_exact(system, word):
    """Spectral norm of the linear part of ``f_w = f_{u_l} o ... o f_{u_1}``.

    Returns ``None`` when some map along the word is a general convex-body
    projection, which has no global linear part.
    """
    syms = validate_word(system, word)
    m = np.eye(system.dim)
    for u in syms:
        lin = system.maps[u - 1].linear_part()
        if lin is None:
            return None
        m = lin @ m
    return spectral_norm(m)


def composition_lipschitz_on_tree(system, word, x0, depth, samples, seed):
    """Sampled lower bound for the Lipschitz constant of ``f_w`` restricted to
    the orbit tree ``union_n Phi^n({x0})``.

    Pairs of tree nodes are drawn by picking random words of length at most
    ``depth`` (deterministically from ``seed``); the returned value is the
    largest quotient ``d(f_w(p), f_w(q)) / d(p, q)`` over sampled pairs, pairs
    closer than ``DEGENERATE_PAIR_TOL`` being skipped. Raises
    :class:`DegenerateTreeError` when every sampled pair collapses.
    """
    syms = validate_word(system, word)
    start = geometry.as_vector(x0, dim=system.dim)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if samples < 2:
        raise ValueError("need at least 2 sampled pairs")

    # Deterministic sample plan first, evaluation second, so the result does
    # not depend on evaluation order.
    rng = np.random.Generator(np.random.Philox(seed))
    n_nodes = 2 * samples
    lengths = rng.integers(0, depth + 1, size=n_nodes)
    choices = rng.integers(1, system.n_maps + 1, size=(n_nodes, max(depth, 1)))

    def image(v, symbols):
        return _iterate(system, v, symbols, len(symbols)).points[-1]

    nodes = [image(start, choices[j, :lengths[j]]) for j in range(n_nodes)]

    best = None
    for j in range(samples):
        p, q = nodes[2 * j], nodes[2 * j + 1]
        gap = float(np.linalg.norm(p - q))
        if gap < DEGENERATE_PAIR_TOL:
            continue
        quot = float(np.linalg.norm(image(p, syms) - image(q, syms))) / gap
        best = quot if best is None else max(best, quot)
    if best is None:
        raise DegenerateTreeError(samples)
    return best
