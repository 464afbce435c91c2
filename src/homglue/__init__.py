"""Entropy-coupling machinery for graph homomorphism distributions:
Markov-tree gluing of exact finite distributions, recursive strong tree
decompositions, and desk-scale Sidorenko bound checks.

The package itself exports nothing: each name is imported from its module,
as in `from homglue.dists import glue_markov_tree`.
"""
