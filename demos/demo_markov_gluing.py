"""Walkthrough: gluing local distributions along a Markov tree.

Two uniform ordered-edge distributions on K3, sharing one index, glue into
the uniform distribution over homomorphic images of a 2-edge path, and the
entropy identity H(joint) = sum H(bag) - sum H(overlap) holds on the nose.
"""

import math
from fractions import Fraction

from homglue.dists import SparseDistribution, entropy, glue_markov_tree, marginal
from homglue.markov import MarkovTree


def main():
    ordered_edges = [(a, b) for a in range(3) for b in range(3) if a != b]
    p01 = SparseDistribution((0, 1), 3, {e: Fraction(1, 6) for e in ordered_edges})
    p12 = SparseDistribution((1, 2), 3, {e: Fraction(1, 6) for e in ordered_edges})

    m = MarkovTree(3, bags=[(0, 1), (1, 2)], tree=[(0, 1)])
    joint = glue_markov_tree(m, [p01, p12])

    print("joint support size:", joint.support_size())
    print("sample atom mass:  ", next(iter(joint.mass.values())))
    print("bag marginals reproduced exactly:",
          marginal(joint, (0, 1)) == p01 and marginal(joint, (1, 2)) == p12)

    lhs = entropy(joint)
    rhs = entropy(p01) + entropy(p12) - entropy(marginal(p01, (1,)))
    print("H(joint) = %.10f bits" % lhs)
    print("sum H(bag) - H(overlap) = %.10f bits" % rhs)
    print("log2(12) = %.10f bits" % math.log2(12))

    # the junction factorization q(y) = p01(y0, y1) p12(y1, y2) / m(y1) on
    # every triple that both bag laws allow
    m1 = marginal(p01, (1,)).mass
    closed_form = {
        (y0, y1, y2): p01.mass[y0, y1] * p12.mass[y1, y2] / m1[(y1,)]
        for (y0, y1) in p01.mass
        for (z1, y2) in p12.mass
        if z1 == y1
    }
    print("closed form agrees atom-for-atom:", closed_form == dict(joint.mass))


if __name__ == "__main__":
    main()
