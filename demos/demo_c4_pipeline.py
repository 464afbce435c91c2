"""Walkthrough: the full pipeline on the committed level-1 decomposition of
C4 (fixtures/c4.json) and the target K3 (fixtures/k3.json).

Builds the associated distribution on Hom(C4, K3) by gluing two path walks,
then prints the entropy chain and the exact density gap.
"""

import json
import math
import os

from homglue.dists import entropy
from homglue.graphs import hom_count
from homglue.serialize import graph_from_json, strong_from_json
from homglue.sidorenko import associated_distribution, entropy_bound_report, sidorenko_check
from homglue.strong import minimum_subdecomposition, validate_strong

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def load(name):
    with open(os.path.join(FIXTURES, name + ".json")) as fh:
        return json.load(fh)


def main():
    sd = strong_from_json(load("c4"))
    g = graph_from_json(load("k3"))
    print("fixture validates:", validate_strong(sd).ok)

    sub, embedding = minimum_subdecomposition(sd, (0, 2))
    print("minimum sub-decomposition containing {0,2}:",
          sub.host, "embedded as", embedding)

    dist = associated_distribution(sd, g)
    print("atoms:", dist.support_size(), "(= hom count %d)" % hom_count(sd.host, g))
    print("entropy: %.10f bits (= (1/2) log2 288 = %.10f)"
          % (entropy(dist), 0.5 * math.log2(288)))

    rep = entropy_bound_report(sd, g)
    print("rhs without constant: %.10f bits" % rep.rhs_bits)
    print("log2 hom count:       %.10f bits" % rep.log_hom_bits)
    print("density gap:", sidorenko_check(sd.host, g), "(exact rational)")


if __name__ == "__main__":
    main()
