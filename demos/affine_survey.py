"""Survey: matrix mutation classes of the non-simply-laced affine diagrams.

Every affine valued graph has a finite matrix mutation class; an
indefinite control matrix does not.  For each cataloged folding the
class sizes obey |Mut(quotient)| <= |Mut^G(ambient)| <= |Mut(ambient)|.

Run:  python3 demos/affine_survey.py        (takes about a minute)
"""

from clusterfold import catalog, explorer
from clusterfold.exchange import ExchangeMatrix

AFFINE = (["~A1", "~A1(2)", "~G2(1)", "~G2(2)", "~F4(1)", "~F4(2)"]
          + [f"~{fam}{n}" for fam in ("B", "C", "BC") for n in (2, 3, 4)]
          + ["~BD2", "~BD3", "~CD3", "~CD4"])

FOLDINGS = ["A3toB2", "D4toB3", "D4toG2", "squaretoK2",
            "D4t-A1t2", "D4t-G2t1", "E6t-F4t1"]


def main():
    print("mutation-class sizes of affine valued graphs (limit 50000):")
    for name in AFFINE:
        report = explorer.mutation_class(catalog.affine(name), limit=50_000)
        print(f"    {name:8s} {report.verdict:8s} size={report.size}")

    control = ExchangeMatrix([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])
    report = explorer.mutation_class(control, limit=10_000)
    print(f"    control  {report.verdict} after {report.size} matrices")

    print("\nsize chains |Mut(quotient)| <= |Mut^G(ambient)| <= |Mut(ambient)|:")
    for name in FOLDINGS:
        pair = catalog.folding_pair(name).pair
        chain = explorer.verify_monotonicity_chain(pair, limit=50_000)
        suffix = "" if chain.ambient_complete else "+ (limit hit)"
        print(f"    {name:12s} {chain.quotient_size} <= {chain.orbit_size}"
              f" <= {chain.ambient_size}{suffix}   holds={chain.holds}")


if __name__ == "__main__":
    main()
