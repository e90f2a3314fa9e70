"""Driver generation and prefix audits."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    Custom,
    Cyclic,
    DisjunctiveEnumeration,
    DriverExhaustedError,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    IidRandom,
    LinearSystem,
    SymbolRangeError,
    check_disjunctive,
    check_repetitive,
    composition_lipschitz_exact,
    composition_lipschitz_on_tree,
    enumeration_prefix_length,
    generate,
    run_orbit,
    solve,
)
from ifslab.drivers import symbol_blocks

# Frozen once: i.i.d. audit seeds for the 5000-symbol disjunctivity property.
IID_AUDIT_SEEDS = (11, 23, 37)


def enumeration_prefix_oracle(n_symbols, length):
    # independent reconstruction: concatenate words in length-then-lex order
    out = []
    for word_len in itertools.count(1):
        for word in itertools.product(range(1, n_symbols + 1), repeat=word_len):
            out.extend(word)
            if len(out) >= length:
                return out[:length]


def test_cyclic_identity():
    assert generate(Cyclic((1, 2)), 5).tolist() == [1, 2, 1, 2, 1]


def test_cyclic_permutation_order():
    assert generate(Cyclic((3, 1, 2)), 7).tolist() == [3, 1, 2, 3, 1, 2, 3]


def test_cyclic_rejects_non_permutation():
    with pytest.raises(ValueError):
        Cyclic((1, 1, 2))


@pytest.mark.parametrize("build, message", [
    (lambda: Cyclic((1.5, 2)), "permutation must be integral"),
    (lambda: Cyclic(("1", 2)), "permutation must be integral"),
    (lambda: Cyclic(None), "permutation must be integral"),
    (lambda: Custom((1.9, 2)), "symbols must be integral"),
    (lambda: Custom((1, 2), alphabet_size=2.5), "alphabet size: need an integer of at least 1"),
    (lambda: IidRandom(3.7, (1.0,)), "seed: need an integer of at least 0"),
    (lambda: IidRandom(float("nan"), (1.0,)), "seed: need an integer of at least 0"),
    (lambda: IidRandom(None, (1.0,)), "seed: need an integer of at least 0"),
    (lambda: DisjunctiveEnumeration(2.9), "alphabet size: need an integer of at least 1"),
    (lambda: DisjunctiveEnumeration(True), "alphabet size: need an integer of at least 1"),
], ids=["cyclic", "cyclic-str", "cyclic-none", "custom", "custom-alphabet", "iid-seed",
        "iid-nan-seed", "iid-none-seed", "enumeration", "enumeration-bool"])
def test_driver_integers_reject_non_integral_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_driver_integers_read_integral_floats():
    assert Cyclic((2.0, 1.0)) == Cyclic((2, 1))
    assert Custom((1.0, 2.0), alphabet_size=3.0) == Custom((1, 2), 3)
    assert IidRandom(3.0, (1.0,)) == IidRandom(3, (1.0,))
    assert DisjunctiveEnumeration(2.0) == DisjunctiveEnumeration(2)
    assert isinstance(IidRandom(np.int64(5), (1.0,)).seed, int)
    assert IidRandom(2**70, (1.0,)).seed == 2**70  # seeds wider than 64 bits stay


def test_enumeration_first_symbols():
    assert generate(DisjunctiveEnumeration(2), 8).tolist() == [1, 2, 1, 1, 1, 2, 2, 1]


def test_enumeration_matches_oracle():
    for n in (2, 3, 4):
        got = generate(DisjunctiveEnumeration(n), 400).tolist()
        assert got == enumeration_prefix_oracle(n, 400)


def test_iid_streams_are_reproducible():
    spec = IidRandom(99, (0.25, 0.25, 0.5))
    a = generate(spec, 10).tolist()
    b = generate(spec, 10).tolist()
    assert a == b
    # stepwise consumption matches batch consumption
    stream = spec.stream()
    stepwise = [stream.next() for _ in range(10)]
    assert stepwise == a


def test_iid_weight_validation():
    with pytest.raises(ValueError):
        IidRandom(1, (0.5, 0.0, 0.5))
    with pytest.raises(ValueError):
        IidRandom(1, (0.7, 0.7))
    for weights in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (-np.inf, 1.0), (np.nan,)):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            IidRandom(1, weights)


def test_custom_replays_then_exhausts():
    spec = Custom((2, 1, 2))
    assert generate(spec, 3).tolist() == [2, 1, 2]
    with pytest.raises(DriverExhaustedError):
        generate(spec, 4)
    with pytest.raises(SymbolRangeError):
        Custom((1, 5), alphabet_size=3)


def test_stream_positions():
    stream = DisjunctiveEnumeration(2).stream()
    assert stream.next() == 1
    assert stream.take(3).tolist() == [2, 1, 1]
    assert stream.position == 4


def test_check_disjunctive_on_cyclic():
    seq = generate(Cyclic((1, 2)), 50).tolist()
    report = check_disjunctive(seq, 2)
    assert report.missing == ((1, 1), (2, 2))
    assert report.missing_count == 2
    assert report.found == 2
    assert not report.complete


def test_check_disjunctive_report_counts_are_consistent():
    seq = generate(IidRandom.uniform(5, 3), 40).tolist()
    for m in (1, 2, 3):
        report = check_disjunctive(seq, m, alphabet_size=3)
        assert report.found + report.missing_count == report.total_words == 3 ** m


def test_enumeration_prefix_complete_at_m3():
    # the level-3 block ends at sum k*N^k; every 3-word appears verbatim inside it
    for n in (2, 3):
        length = enumeration_prefix_length(3, n)
        seq = generate(DisjunctiveEnumeration(n), length).tolist()
        oracle_seq = enumeration_prefix_oracle(n, length)
        assert seq == oracle_seq
        oracle_windows = {tuple(oracle_seq[i:i + 3]) for i in range(length - 2)}
        assert len(oracle_windows) == n ** 3
        assert check_disjunctive(seq, 3, alphabet_size=n).complete


def test_short_and_empty_sequences():
    report = check_disjunctive([1], 2, alphabet_size=2)
    assert report.found == 0 and report.warning is not None
    report = check_disjunctive([], 1, alphabet_size=2)
    assert report.found == 0
    with pytest.raises(ValueError):
        check_disjunctive([], 1)


def test_check_repetitive_counts():
    rep = check_repetitive([1, 2, 1, 2], 2)
    assert rep.counts == (2, 2) and rep.absent == ()
    rep = check_repetitive([1, 1, 1], 2)
    assert rep.counts == (3, 0) and rep.absent == (2,)


def test_enumeration_prefix_is_repetitive():
    seq = generate(DisjunctiveEnumeration(3), 100).tolist()
    # direct count oracle
    expected = {s: seq.count(s) for s in (1, 2, 3)}
    rep = check_repetitive(seq, 3)
    assert rep.counts == (expected[1], expected[2], expected[3])
    assert all(c > 0 for c in rep.counts)


def test_prefix_length_formula_completes_all_windows():
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            length = enumeration_prefix_length(m, n)
            seq = generate(DisjunctiveEnumeration(n), length).tolist()
            assert check_disjunctive(seq, m, alphabet_size=n).complete


def test_cyclic_counts_floor_bound():
    for n, steps in ((2, 101), (3, 50), (4, 1000)):
        seq = generate(Cyclic(tuple(range(1, n + 1))), steps).tolist()
        rep = check_repetitive(seq, n)
        assert all(c >= steps // n for c in rep.counts)


def test_subword_closure_of_audits():
    # an audit passing at m implies passing at every smaller window
    sequences = [
        generate(DisjunctiveEnumeration(2), enumeration_prefix_length(3, 2)).tolist(),
        generate(DisjunctiveEnumeration(3), enumeration_prefix_length(3, 3)).tolist(),
        generate(IidRandom.uniform(11, 2), 5000).tolist(),
    ]
    for seq in sequences:
        n = max(seq)
        reports = {m: check_disjunctive(seq, m, alphabet_size=n) for m in (1, 2, 3)}
        for m in (2, 3):
            if reports[m].complete:
                assert all(reports[k].complete for k in range(1, m))


def test_iid_prefixes_are_disjunctive_at_m3():
    for n in (2, 3):
        for seed in IID_AUDIT_SEEDS:
            seq = generate(IidRandom.uniform(seed, n), 5000).tolist()
            assert check_disjunctive(seq, 3, alphabet_size=n).complete


@pytest.mark.parametrize("call", [
    lambda driver: list(symbol_blocks(driver, 4, 2)),
    lambda driver: run_orbit(IFSystem((Hyperplane([0, 1], 0.0), Hyperplane([0, 1], 1.0)), 2),
                             [0.0, 0.3], driver, 4),
    lambda driver: solve(LinearSystem([[0, 1], [0, 1]], [0, 1]), driver, tol=1e-9, max_iter=4),
], ids=["symbol_blocks", "run_orbit", "solve"])
def test_a_generator_is_no_driver(call):
    with pytest.raises(TypeError, match="a spec, a stream, or a list, tuple or numpy array"):
        call(s for s in [1, 2, 1, 2])


def test_symbols_validated_against_alphabet():
    with pytest.raises(SymbolRangeError):
        check_disjunctive([1, 4], 1, alphabet_size=3)


def check_disjunctive_reference(seq, m, n):
    # naive audit: the set of window tuples against every word in lex order
    seen = {tuple(seq[i:i + m]) for i in range(len(seq) - m + 1)}
    missing = [w for w in itertools.product(range(1, n + 1), repeat=m) if w not in seen]
    warning = None if len(seq) >= m else (
        f"sequence of length {len(seq)} is shorter than the window {m}")
    return n ** m - len(missing), len(missing), tuple(missing[:20]), warning


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(0, 40), min_size=1, max_size=30))
def test_enumeration_in_any_block_sizes_equals_oracle(n, sizes):
    # up to 1200 symbols: enough to cross several word-length boundaries for
    # every alphabet (dozens for N=1)
    stream = DisjunctiveEnumeration(n).stream()
    got = np.concatenate([stream.take(k) for k in sizes])
    assert got.dtype == np.int64
    assert got.tolist() == enumeration_prefix_oracle(n, sum(sizes))
    assert stream.position == sum(sizes)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 20_000), st.integers(1, 5000))
def test_enumeration_read_in_blocks_concatenates_to_generate(n, total, size):
    # the blocks run_orbit and solve read, of any size, across many word lengths
    blocks = list(symbol_blocks(DisjunctiveEnumeration(n), total, n, size))
    assert all(len(block) == size for block in blocks[:-1])
    got = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    assert np.array_equal(got, generate(DisjunctiveEnumeration(n), total))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_check_disjunctive_equals_set_of_tuples_reference(n, m, data):
    seq = data.draw(st.lists(st.integers(1, n), max_size=120))
    report = check_disjunctive(seq, m, alphabet_size=n)
    assert (report.found, report.missing_count, report.missing, report.warning) == (
        check_disjunctive_reference(seq, m, n))
    assert report.total_words == n ** m and report.prefix_length == len(seq)


def _raised_symbol(call):
    with pytest.raises(SymbolRangeError) as info:
        call()
    return info.value.symbol


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_symbol_range_error_names_first_offender_on_every_path(n, data):
    good = st.integers(1, n)
    bad = st.one_of(st.integers(-3, 0), st.integers(n + 1, n + 4))
    head = data.draw(st.lists(good, max_size=6))
    tail = data.draw(st.lists(st.one_of(good, bad), max_size=6))
    seq = head + [data.draw(bad)] + tail
    first = next(s for s in seq if not 1 <= s <= n)
    lines = IFSystem(tuple(HyperplaneProjection(Hyperplane([1.0, k], 0.0)) for k in range(n)), 2)
    rows = LinearSystem([[1.0, k] for k in range(n)], [0.0] * n)
    calls = [
        lambda: Custom(seq, alphabet_size=n),
        lambda: check_disjunctive(seq, 1, alphabet_size=n),
        lambda: check_repetitive(seq, n),
        lambda: run_orbit(lines, [1.0, 1.0], seq, len(seq)),
        lambda: run_orbit(lines, [1.0, 1.0], np.array(seq), len(seq)),
        lambda: solve(rows, seq, tol=1e-300, max_iter=len(seq), x0=[1.0, 1.0]),
        lambda: composition_lipschitz_exact(lines, seq),
        lambda: composition_lipschitz_on_tree(lines, seq, [1.0, 1.0], 2, 4, 0),
    ]
    assert [_raised_symbol(call) for call in calls] == [first] * len(calls)
