"""Brute-force listings the tests share as oracles."""

import itertools


def elements_of(M):
    """Every element of the module M, one per scalar coordinate vector in
    itertools.product order."""
    return [M.from_vec(v) for v in itertools.product(list(M.F.elements()), repeat=M.sdim)]


def int_elements(module):
    """Every integer coordinate tuple of module, in itertools.product
    order: element k is entry k, the order of the norm table."""
    return list(itertools.product(range(module.F.p), repeat=module.sdim))
