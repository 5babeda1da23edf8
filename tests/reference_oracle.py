"""The pure-Python union-find closure: the reference the components closure
of ``enumeration._closure_roots`` is checked against.

It materializes every word of length <= max_len + ORACLE_SLACK + 1 as a
tuple, indexes the words in shortlex order, and unions each word with every
shorter word one relation instance away.  A union keeps the smaller index,
so a root is its class's least word.
"""

from kiselman.enumeration import ORACLE_SLACK, _all_words


def closure_roots(n: int, max_len: int):
    """Union-find congruence closure at bounds max_len + ORACLE_SLACK and
    one more: the words, and the root of each word of length <= max_len at
    both bounds.  Words are indexed in shortlex order and a union keeps the
    smaller index, so a root is its class's least word, which is no longer
    than any member: the root lists are equal iff the partitions are."""
    bound = max_len + ORACLE_SLACK
    words = list(_all_words(n, bound + 1))
    index = {w: k for k, w in enumerate(words)}
    parent = list(range(len(words)))
    # the positions of the first words longer than max_len and than bound
    keep, split = index[(1,) * (max_len + 1)], index[(1,) * (bound + 1)]

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for k, w in enumerate(words):
        if k == split:
            roots_small = [find(j) for j in range(keep)]
        length = len(w)
        for p in range(length - 1):
            a, b = w[p], w[p + 1]
            if a == b:
                # a_i a_i -> a_i
                union(k, index[w[: p + 1] + w[p + 2 :]])
            if p + 2 < length:
                c = w[p + 2]
                if a == c and b < a:
                    # a_i a_j a_i -> a_i a_j  (j < i)
                    union(k, index[w[: p + 2] + w[p + 3 :]])
                if a == c and b > a:
                    # a_j a_i a_j -> a_i a_j  (j < i)
                    union(k, index[w[:p] + (b, a) + w[p + 3 :]])
    return words, roots_small, [find(j) for j in range(keep)]
