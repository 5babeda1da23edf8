"""Executable checks of the laws of K_n at desk scale: the algebraic laws at
rank <= 3, save associativity and tau on seeded words of length <= 8 and
content on every pair of elements, all at rank <= 4; reduction against the
congruence oracle at rank <= 4 (every word of length <= 8 at ranks 2 and 3,
and of length <= 6 at rank 4); the laws of the paper's results on all of
K_2 to K_4; and the enumeration, its truncation table and ball census, and
the stochastic layer to rank 5.

Each check is a named predicate over full enumerations or seeded random
samples, and the one statement of its law.  ``run_selftest`` evaluates all
of them and returns (name, ok) pairs; the CLI prints one line per check.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from kiselman import core, enumeration, level_metric, morphisms, stochastic
from kiselman.enumeration import _all_words, _subsets

RANKS = (2, 3)
WIDE_RANKS = (2, 3, 4)
# (rank, word length) of the oracle check; K_4's longest canonical word has
# length 6, so all 115 of its classes occur at length 6
ORACLE_BOUNDS = ((2, 8), (3, 8), (4, 6))
SAMPLE_LEN = 8  # the longest random word the sampled laws draw
TRUNCATION_MAX_RANK = 5  # the truncation table is checked entry by entry to K_5


def check_defining_relations():
    for n in RANKS:
        for i in range(1, n + 1):
            if core.reduce(n, (i, i)) != core.generator(n, i):
                return False
            for j in range(1, i):
                ij = core.reduce(n, (i, j))
                if core.reduce(n, (i, j, i)) != ij or core.reduce(n, (j, i, j)) != ij:
                    return False
    return True


def check_reduction_matches_oracle():
    for n, max_len in ORACLE_BOUNDS:
        oracle = enumeration.congruence_oracle(n, max_len)
        # the automaton walk lists the least words of the classes, in order
        walk = tuple(x.letters for x in enumeration.enumerate_elements(n))
        if oracle.least_words != walk:
            return False
        for w in _all_words(n, max_len):
            if core.reduce(n, w).letters != oracle.least_words[oracle.class_ids[w]]:
                return False
    return True


def _sample_element(rng, n):
    """The element of a seeded random word over [n] of length <= SAMPLE_LEN."""
    return core.reduce(n, [rng.randint(1, n) for _ in range(rng.randint(0, SAMPLE_LEN))])


def check_associativity():
    rng = random.Random(7)
    for n in WIDE_RANKS:
        for _ in range(300):
            x, y, z = (_sample_element(rng, n) for _ in range(3))
            if (x * y) * z != x * (y * z):
                return False
    return True


def bfs_elements(n):
    """K_n by breadth-first search of the right Cayley graph from the unit,
    in shortlex order: the reference the automaton walk is checked against.
    It expands ``core.RightCayley`` in id order, which is breadth-first
    order, so it reaches K_n through the kernel's products alone."""
    table = core.RightCayley(n)
    # the elements list is the search's queue: it grows as elements are reached
    for x, _ in enumerate(table.elements):
        for i in range(1, n + 1):
            table.add(x, i)
    return tuple(sorted(table.elements, key=lambda x: x.shortlex_key))


def check_enumeration_matches_bfs():
    # the walk and the BFS's multiply both go through the kernel's state rule,
    # so every walked word is also checked against the definition
    return all(walk == bfs_elements(n) and all(core.is_canonical(x.letters) for x in walk)
               for n in (2, 3, 4, 5) for walk in [enumeration.enumerate_elements(n).elements])


def check_idempotent_classification():
    for n in RANKS:
        universe = enumeration.enumerate_elements(n)
        expected = {core.idempotent(n, s) for s in _subsets(n)}
        if len(expected) != 2**n:
            return False
        actual = {x for x in universe if x * x == x}
        if actual != expected:
            return False
    return True


def check_power_collapse():
    rng = random.Random(11)
    for n in RANKS:
        for _ in range(200):
            x = core.reduce(n, [rng.randint(1, n) for _ in range(rng.randint(0, 6))])
            cset = core.content(x)
            for k in range(max(1, len(cset)), len(cset) + 3):
                if core.power(x, k) != core.idempotent(n, cset):
                    return False
    return True


def check_content_homomorphism():
    for n in WIDE_RANKS:
        universe = enumeration.enumerate_elements(n)
        for x in universe:
            for y in universe:
                if core.content(x * y) != core.content(x) | core.content(y):
                    return False
    return True


def check_tau_antiautomorphism():
    rng = random.Random(13)
    for n in WIDE_RANKS:
        for _ in range(300):
            x, y = (_sample_element(rng, n) for _ in range(2))
            if core.tau(x * y) != core.tau(y) * core.tau(x):
                return False
            if core.tau(core.tau(x)) != x:
                return False
    # tau mirrors the canonical word without reducing it, so the mirror
    # must be canonical and must equal the reduced mirrored word
    for n in (2, 3, 4, 5):
        for x in enumeration.enumerate_elements(n):
            mirrored = core.reduce(n, [n + 1 - i for i in reversed(x.letters)])
            if not core.is_canonical(core.tau(x).letters) or core.tau(x) != mirrored:
                return False
    return True


def check_deletion_is_word_filter():
    for n in RANKS:
        for subset in _subsets(n):
            for w in _all_words(n, 5):
                via_word = core.reduce(n, morphisms.word_delete(subset, w))
                if morphisms.delete(subset, core.reduce(n, w)) != via_word:
                    return False
    return True


def check_deletion_composition():
    for n in RANKS:
        universe = enumeration.enumerate_elements(n)
        for x in universe:
            for s1 in _subsets(n):
                for s2 in _subsets(n):
                    both = morphisms.delete(s1, morphisms.delete(s2, x))
                    if both != morphisms.delete(s1 | s2, x):
                        return False
                    if both != morphisms.delete(s2, morphisms.delete(s1, x)):
                        return False
    return True


def check_deletion_of_idempotents():
    for n in RANKS:
        for s1 in _subsets(n):
            for s2 in _subsets(n):
                if morphisms.delete(s1, core.idempotent(n, s2)) != core.idempotent(
                    n, s2 - s1
                ):
                    return False
    return True


def check_truncation_chain_step():
    for n in RANKS:
        universe = enumeration.enumerate_elements(n)
        for x in universe:
            for m in range(1, n + 1):
                am = core.generator(n, m)
                lhs = morphisms.delete(range(1, m), x) * am
                rhs = morphisms.delete(range(1, m + 1), x) * am
                if lhs != rhs:
                    return False
    return True


def check_truncation_absorption():
    for n in RANKS:
        universe = enumeration.enumerate_elements(n)
        for x in universe:
            for i in range(n + 1):
                ei = core.idempotent(n, range(1, i + 1))
                for j in range(i + 1):
                    if x * ei != morphisms.delete(range(1, j + 1), x) * ei:
                        return False
    return True


def check_level_agreement():
    for n in RANKS:
        for x in enumeration.enumerate_elements(n):
            by_def = level_metric.level_by_definition(x)
            by_rec = level_metric.level_by_recursion(n, x.letters)
            by_m = level_metric.m_function(x)
            if not by_def == by_rec == by_m:
                return False
    return True


def check_level_recursion_on_any_word():
    for n in RANKS:
        for w in _all_words(n, 6):
            if level_metric.level_by_recursion(n, w) != level_metric.level_by_definition(
                core.reduce(n, w)
            ):
                return False
    return True


def check_right_multiplication_law():
    for n in WIDE_RANKS:
        for x in enumeration.enumerate_elements(n):
            lvl = level_metric.level_by_definition(x)
            for i in range(1, n + 1):
                got = level_metric.level_by_definition(x * core.generator(n, i))
                want = lvl - 1 if i == lvl else lvl
                if got != want:
                    return False
    return True


def check_left_multiplication_law():
    for n in RANKS:
        for x in enumeration.enumerate_elements(n):
            lvl = level_metric.level_by_definition(x)
            for i in range(1, n):
                if level_metric.level_by_definition(core.generator(n, i) * x) != lvl:
                    return False
        # multiplying by smaller-index elements on the left preserves level
        small = [
            y
            for y in enumeration.enumerate_elements(n)
            if core.content(y) <= frozenset(range(1, n))
        ]
        for y in small:
            for x in enumeration.enumerate_elements(n):
                if level_metric.level_by_definition(
                    y * x
                ) != level_metric.level_by_definition(x):
                    return False
    return True


def check_top_generator_counterexample():
    # left multiplication by a_n can strictly drop the level: for each j < n,
    # a_n * e_{[n-1] minus [j]} has level j
    for n in RANKS:
        an = core.generator(n, n)
        for j in range(n):
            x = core.idempotent(n, set(range(j + 1, n)))
            if level_metric.level_by_definition(an * x) != j:
                return False
    return True


def check_level_submultiplicative():
    for n in RANKS:
        universe = enumeration.enumerate_elements(n)
        level = {x: level_metric.level_by_definition(x) for x in universe}
        for x in universe:
            for y in universe:
                if level[x * y] > min(level[x], level[y]):
                    return False
    return True


def check_level_extremes():
    for n in RANKS:
        for x in enumeration.enumerate_elements(n):
            lvl = level_metric.level_by_definition(x)
            if (lvl == 0) != (x == core.zero(n)):
                return False
            if (lvl == n) != (core.content(x) <= frozenset(range(1, n))):
                return False
    return True


def check_zero_propagation():
    for n in RANKS:
        f = core.zero(n)
        for x in enumeration.enumerate_elements(n):
            for k in range(2, n + 1):
                if x * core.generator(n, k) == f and x != f:
                    return False
            for r in range(1, n):
                if core.generator(n, r) * x == f and x != f:
                    return False
    return True


def check_witness_sets_equal():
    for n in WIDE_RANKS:
        for x in enumeration.enumerate_elements(n):
            a_set, b_set = level_metric.level_sets(x)
            if a_set != b_set:
                return False
            lvl = level_metric.level_by_definition(x)
            if a_set != frozenset(range(lvl, n + 1)):
                return False
    return True


def check_ultrametric_axioms():
    for n in WIDE_RANKS:
        universe = enumeration.enumerate_elements(n).elements
        d = np.array(
            [[level_metric.distance(x, y) for y in universe] for x in universe], dtype=np.int8
        )
        if not np.array_equal(d == 0, np.eye(len(universe), dtype=bool)) or (d != d.T).any():
            return False
        # d(x, y) <= max(d(x, z), d(z, y)) for every z: axes (x, y, z)
        if (d > np.maximum(d[:, None, :], d.T[None, :, :]).min(axis=2)).any():
            return False
    return True


def check_distance_to_zero_is_level():
    for n in WIDE_RANKS:
        f = core.zero(n)
        for x in enumeration.enumerate_elements(n):
            if level_metric.distance(x, f) != level_metric.level_by_definition(x):
                return False
    return True


def check_ball_and_sphere_sizes():
    sizes = dict(enumeration.cardinality_table(max_rank=max(WIDE_RANKS)))
    sizes[1] = 2  # e and the single generator
    for n in WIDE_RANKS:
        universe = enumeration.enumerate_elements(n)
        f = core.zero(n)
        b1 = level_metric.ball(universe, f, 1)
        rset = level_metric.r_set(universe)
        if b1 != rset or len(rset) != 1 + sizes[n - 1]:
            return False
        sn = level_metric.sphere(universe, f, n)
        expected = [x for x in universe if core.content(x) <= frozenset(range(1, n))]
        if sn != expected or len(sn) != sizes[n - 1]:
            return False
    return True


def check_truncation_table():
    # each entry against delete by definition, and the balls of radius r as
    # the fibres of K_n onto <a_(r+1), ..., a_n> = K_(n-r), e's being K_r
    sizes = dict(enumeration.cardinality_table(max_rank=TRUNCATION_MAX_RANK))
    sizes.update({0: 1, 1: 2})
    for n in range(2, TRUNCATION_MAX_RANK + 1):
        universe = enumeration.enumerate_elements(n)
        position = universe.position
        for r, row in enumerate(universe.truncations):
            deleted = range(1, r + 1)
            if list(row) != [position[morphisms.delete(deleted, x).letters] for x in universe]:
                return False
            classes = universe.classes(r)
            if len(classes) != sizes[n - r] or sum(map(len, classes.values())) != sizes[n]:
                return False
            if len(classes[row[0]]) != sizes[r]:  # e is the first element
                return False
    return True


def check_r_set_structure():
    # R = {e_{{2..n}}} union {x a_1 e_{{2..m(x)}} : x generated by a_2..a_n}
    for n in RANKS:
        universe = enumeration.enumerate_elements(n)
        rset = set(level_metric.r_set(universe))
        a1 = core.generator(n, 1)
        sub = [x for x in universe if 1 not in core.content(x)]
        built = {core.idempotent(n, range(2, n + 1))}
        for x in sub:
            m = level_metric.m_function(x)
            built.add(x * a1 * core.idempotent(n, range(2, m + 1)))
        if built != rset:
            return False
    return True


def check_partial_product_stabilization():
    for n in WIDE_RANKS:
        full_cycle = tuple(range(1, n + 1))
        for preamble in [(), *((i,) for i in full_cycle)]:
            spec = stochastic.SequenceSpec(n, preamble=preamble, cycle=full_cycle)
            trace = stochastic.partial_products(spec)
            if trace.value != core.zero(n) or trace.value != stochastic.eventual_value(spec):
                return False
        for cycle_len in (1, 2, 3):
            for cycle in itertools.product(range(1, n + 1), repeat=cycle_len):
                spec = stochastic.SequenceSpec(n, cycle=cycle)
                trace = stochastic.partial_products(spec)
                if trace.value != stochastic.eventual_value(spec):
                    return False
                if trace.value != core.idempotent(n, set(cycle)):
                    return False
    return True


def check_chain_vs_convolution():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            p = rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n
            p = p / p.sum()
            pmf = stochastic.exact_hitting_pmf(p, k_max=120)
            chain_cdf = stochastic.chain_hitting_cdf(p, 120)
            if np.abs(pmf.cdf() - chain_cdf).max() > 1e-12:
                return False
    return True


def check_pmf_mean():
    # at K = 5 and 40 the tail is most of E[T]; at the default K it is about 1e-9·K
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            p = rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n
            p = p / p.sum()
            for k_max in (None, 5, 40):
                pmf = stochastic.exact_hitting_pmf(p, k_max)
                if abs(pmf.mean() - float((1.0 / p).sum())) > 1e-9:
                    return False
    return True


def check_simulation_consistency():
    # the vectorised stream seeding and the lane draws are numpy's own,
    # on both sides of a 32-bit word boundary too
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**70 + 3):
        for start, stop in ((0, 2100), (2**32 - 3, 2**32), (2**32, 2**32 + 3)):
            streams = stochastic._trial_streams(seed, start, stop)
            if any(len(column) != stop - start for column in streams):
                return False
            draws, _ = stochastic._lane_draws(streams, 16)
            state_hi, state_lo, inc_hi, inc_lo = (column.tolist() for column in streams)
            for lane, trial in enumerate(range(start, stop)):
                rng = np.random.default_rng([seed, trial])
                if rng.bit_generator.state["state"] != {
                    "state": state_hi[lane] << 64 | state_lo[lane],
                    "inc": inc_hi[lane] << 64 | inc_lo[lane],
                } or not np.array_equal(rng.random(16), draws[lane]):
                    return False
    p = (1 / 3, 1 / 3, 1 / 3)
    rep1 = stochastic.simulate(3, p, trials=2000, seed=12345, mode="full")
    rep2 = stochastic.simulate(3, p, trials=2000, seed=12345, mode="full")
    if rep1.to_json() != rep2.to_json():
        return False
    if rep1.crosscheck_failures != 0:
        return False
    if min(rep1.histogram) < 3:
        return False
    pmf = stochastic.exact_hitting_pmf(p)
    verdict = stochastic.verify_distribution(rep1, pmf)
    # stricter than the rule's TV bound at 2,000 trials, 0.089
    return verdict.passed and verdict.tv_distance < 0.05


CHECKS = [
    ("defining relations hold after reduction", check_defining_relations),
    ("reduction returns the least word of its congruence class", check_reduction_matches_oracle),
    ("multiplication is associative", check_associativity),
    ("the automaton walk equals the BFS, order included", check_enumeration_matches_bfs),
    ("idempotents are exactly the decreasing products e_X", check_idempotent_classification),
    ("high powers collapse to the content idempotent", check_power_collapse),
    ("content is a union homomorphism", check_content_homomorphism),
    ("tau is an involutive antiautomorphism", check_tau_antiautomorphism),
    ("deletion agrees with word filtering", check_deletion_is_word_filter),
    ("deletions compose by union and commute", check_deletion_composition),
    ("deleting from an idempotent removes indices", check_deletion_of_idempotents),
    ("one-step truncation identity under right a_m", check_truncation_chain_step),
    ("truncated element absorbs into e_[i]", check_truncation_absorption),
    ("three level computations agree", check_level_agreement),
    ("level recursion is representative-independent", check_level_recursion_on_any_word),
    ("right multiplication law for the level", check_right_multiplication_law),
    ("left multiplication below n preserves level", check_left_multiplication_law),
    ("left multiplication by a_n can drop the level", check_top_generator_counterexample),
    ("level of a product is at most both levels", check_level_submultiplicative),
    ("level extremes characterize zero and low content", check_level_extremes),
    ("only the zero maps to zero under these products", check_zero_propagation),
    ("deletion and absorption witness sets coincide", check_witness_sets_equal),
    ("distance is an ultrametric", check_ultrametric_axioms),
    ("distance to the zero equals the level", check_distance_to_zero_is_level),
    ("ball and sphere sizes around the zero", check_ball_and_sphere_sizes),
    ("the truncation table is deletion; its depth-r balls are the fibres onto K_(n-r)",
     check_truncation_table),
    ("structure of the radius-one ball", check_r_set_structure),
    ("partial products stabilize to the content idempotent", check_partial_product_stabilization),
    ("chain powers agree with geometric convolution", check_chain_vs_convolution),
    ("pmf mean equals the sum of reciprocal probabilities", check_pmf_mean),
    ("trial streams and lane draws equal default_rng's; seeded runs reproduce and verify",
     check_simulation_consistency),
]


def run_selftest():
    """Run every check; returns a list of (name, passed) pairs.  A check that
    raises ``AssertionError`` (a ``core.CrosscheckError``: an internal
    cross-check, such as the spot check of ``ball`` or the oracle's slack
    stability, caught a fault) fails, and the next one still runs."""
    results = []
    for name, fn in CHECKS:
        try:
            ok = bool(fn())
        except AssertionError:
            ok = False
        results.append((name, ok))
    return results
