"""The bit-packed canonical-word automaton: the reference the state rule
(``_reduce_py._follow``) is checked against.

A state packs two bits per letter u, from bit 2(u - 1) on: the low one is
set once a letter below u has occurred since u last occurred, the high one
once a letter above u has.  A letter may follow iff both its bits are set.
An absent letter behaves exactly like one with both bits set, so it is
stored as such and the start state has every bit set.  Every state
accepts.
"""


def automaton(n):
    """|K_n|, which is the number of words the automaton accepts, its start
    state and, for each state reachable from the start, the moves
    ``(letter, next state)`` in ascending letter order.  The words are
    finite in number, so the automaton is acyclic: its path counts are
    summed children first, on an explicit stack."""
    start = (1 << 2 * n) - 1
    shift = {v: 2 * (v - 1) for v in range(1, n + 1)}
    # the bits letter v sets in every other letter, and the mask clearing v's own
    seen = {v: sum((1 if u > v else 2) << shift[u] for u in shift if u != v) for v in shift}
    clear = {v: start & ~(3 << shift[v]) for v in shift}
    moves = {}
    counts = {}
    stack = [start]
    while stack:
        s = stack[-1]
        if s not in moves:
            out = moves[s] = [
                (v, (s | seen[v]) & clear[v]) for v in shift if s >> shift[v] & 3 == 3
            ]
            stack += [t for _, t in out if t not in moves]
            continue
        stack.pop()
        if s not in counts:  # a state may be stacked more than once
            counts[s] = 1 + sum(counts[t] for _, t in moves[s])
    return counts[start], start, moves


def state_rule_image(n, s):
    """The state (v, B) of the reference state s, packed as in
    ``enumeration._Moves``: v << (n + 1) | B.  v is the one letter whose
    bits are both clear (0 at the start), and B holds the letters with one
    bit set, whose gap lies on one side of them, and the start's virtual
    last letter 0 once any letter has followed it."""
    bits = {u: s >> 2 * (u - 1) & 3 for u in range(1, n + 1)}
    v = next((u for u, pair in bits.items() if pair == 0), 0)
    b = sum(1 << u for u, pair in bits.items() if pair in (1, 2)) | (v > 0)
    return v << (n + 1) | b
