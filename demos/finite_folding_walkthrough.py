"""Walkthrough: folding a rank-3 simply-laced exchange matrix to rank 2.

The ambient matrix is the bipartite orientation of the A3 diagram; the
symmetry swaps the two endpoints.  Folding produces the B2 exchange
matrix, and projecting the nine ambient cluster variables onto the
orbit variables yields exactly the six quotient cluster variables.

Run:  python3 demos/finite_folding_walkthrough.py
"""

from clusterfold import catalog
from clusterfold.folding import quotient_matrix, quotient_symmetrizer
from clusterfold.seeds import enumerate_cluster_variables


def show_matrix(title, matrix):
    print(title)
    for row in matrix.entries:
        print("   ", " ".join(f"{x:3d}" for x in row))


def main():
    pair = catalog.folding_pair("A3toB2").pair
    show_matrix("ambient exchange matrix (A3, bipartite orientation):", pair.matrix)
    print("orbits:", pair.orbits)
    print("admissible:", pair.admissible)

    quotient = quotient_matrix(pair)
    show_matrix("quotient exchange matrix:", quotient)
    print("symmetrizer:", quotient_symmetrizer(pair))
    print("quotient type:", catalog.diagram_name(quotient))

    ambient = enumerate_cluster_variables(pair.matrix)
    print(f"\nambient cluster variables ({ambient.variable_count}):")
    for text in sorted(x.render() for x in ambient.variables):
        print("   ", text)

    quotient_vars = enumerate_cluster_variables(quotient)
    print(f"\nquotient cluster variables ({quotient_vars.variable_count}):")
    for text in sorted(x.render() for x in quotient_vars.variables):
        print("   ", text)

    projected = {x.project(pair.orbits) for x in ambient.variables}
    print("\nprojection of the ambient set equals the quotient set:",
          projected == set(quotient_vars.variables))


if __name__ == "__main__":
    main()
