"""Brute-force listings the tests share as oracles, and the unchecked
forms they build."""

import itertools

from wittkit.forms import _coerce, _form_of_keys


def elements_of(M):
    """Every element of the module M, one per scalar coordinate vector in
    itertools.product order."""
    return [M.from_vec(v) for v in itertools.product(list(M.F.elements()), repeat=M.sdim)]


def int_elements(module):
    """Every integer coordinate tuple of module, in itertools.product
    order: element k is entry k, the order of the norm table."""
    return list(itertools.product(range(module.F.p), repeat=module.sdim))


def norm_table(form):
    """b(x, x) as an I-coordinate tuple for every element x, in index
    order, by bilinearity from the form's coordinate tensor T: the sum of
    x[a]^2 T[a][a] and of x[a] x[b] (T[a][b] + T[b][a]) for a < b, over
    the terms that are not 0."""
    p = form.module.F.p
    tensor = form._coord_tensor()
    isd = form.coef.module.sdim
    terms = []
    for a, row in enumerate(tensor):
        for b in range(a, len(row)):
            t = row[b] if a == b else [u + v for u, v in zip(row[b], tensor[b][a])]
            if any(t):
                terms.append((a, b, t))
    out = []
    for x in int_elements(form.module):
        acc = [0] * isd
        for a, b, t in terms:
            xab = x[a] * x[b]
            if xab:
                acc = [u + xab * v for u, v in zip(acc, t)]
        out.append(tuple(v % p for v in acc))
    return out


def unchecked_form(coef, module, gram, epsilon):
    """The form of a Gram table, keyed as HermitianForm keys it (each entry
    coerced into the coefficient module, then its raw coordinates) but
    set up without the sesquilinearity and symmetry checks, so that tests
    can build the forms those checks refuse."""
    I = coef.module
    keys = [[I.to_ints(_coerce(I, e)) for e in row] for row in gram]
    return _form_of_keys(coef, module, keys, epsilon)
