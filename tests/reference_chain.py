"""The step-by-step chain CDF: the reference the blocked powers are checked
against.

The level chain's law starts at state n and is multiplied by the
transition matrix once per step; P(T <= k) is the mass in state 0 after k
steps.  One vector-matrix product per k, with no block of powers.
"""

import numpy as np

from kiselman import stochastic


def step_by_step_cdf(p, k_max):
    """P(T <= k) for k = 0..k_max, one product of the law per step."""
    markov = stochastic.transition_matrix(p)
    dist = markov.initial.copy()
    cdf = np.empty(k_max + 1)
    cdf[0] = dist[0]
    for k in range(1, k_max + 1):
        dist = dist @ markov.matrix
        cdf[k] = dist[0]
    return cdf
