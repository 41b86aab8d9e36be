"""The two symmetries of the Lorentzian setting that a claim's data must
respect, read from the polynomials alone, with no Groebner basis and no
sampling.

Scaling.  The brackets of g1-g3 and g5-g7 are linear in alpha, beta, gamma
and delta, so scaling every parameter by t scales the structure constants
by t and the Ricci operator and scalar curvature by t^2.  With the weights
of `WEIGHTS` every soliton residual is then weighted-homogeneous of weight
3, every Ricci entry and scalar of weight 2, and a claim on such a family
is a cone: each substitution has weight 1 (or is := 0), the right side of
each reduction var^2 := rhs has weight 2, and c has weight 2.

The g4 mirror.  e3 -> -e3 keeps the metric and J = diag(1, 1, -1) and maps
g4 at eta to g4 at -eta with (alpha, beta) -> (-alpha, -beta).  A tensor
component picks up the sign `SIGN[i]` of each of its indices, so every g4
claim at eta = -1 is the `mirror` of the claim at eta = +1.
"""

from lieschouten.algebras import instantiate_eta
from lieschouten.poly import Polynomial

WEIGHTS = {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "lambda0": 0, "c": 2}

# e3 -> -e3: the sign each index of a tensor component picks up
SIGN = (1, 1, -1)

# the variables the mirror negates; eta goes with them on symbolic data
MIRRORED = ("alpha", "beta", "eta")


def weights(q: Polynomial) -> set[int]:
    """The weights of the terms of `q`; empty for zero.  A variable with no
    weight (eta, or a name the scaling does not know) raises ValueError."""
    out = set()
    for monomial in q.terms:
        total = 0
        for name, e in zip(q.table.names, monomial):
            if e:
                if name not in WEIGHTS:
                    raise ValueError(f"{name!r} has no weight in {q}")
                total += WEIGHTS[name] * e
        out.add(total)
    return out


def mirror(q: Polynomial) -> Polynomial:
    """`q` with alpha, beta and eta each negated: a term's coefficient
    changes sign with the parity of its degree in them."""
    flipped = [i for i, name in enumerate(q.table.names) if name in MIRRORED]
    return Polynomial(q.table, {m: c * (-1) ** sum(m[i] for i in flipped) for m, c in q.terms.items()})


def mirror_value(name: str, value):
    """A parameter value under the mirror: alpha and beta change sign."""
    return -value if name in MIRRORED else value


def witness_value(value, eta: int):
    """A witness value on one eta branch as a number: a polynomial in eta
    gives its value there; anything else is already a number."""
    return instantiate_eta(value, eta).constant_value() if isinstance(value, Polynomial) else value
