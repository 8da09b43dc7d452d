"""Deciding projective dimension without computing it.

The composite of n+1 ghost maps (maps inducing zero on all cohomology)
between windows of a resolution is null-homotopic exactly when pd <= n.
The demo cross-checks the oracle against directly computed dimensions.
"""

from findim import GF, Quiver, Relation, build_algebra, ghost_maps, ghost_pd_oracle, proj_dim
from findim.complexes import induced_cohomology_zero


def nakayama3():
    q = Quiver(3, [("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 0)])
    rels = [Relation(q, [(1, [a, b])]) for a, b in (("a0", "a1"), ("a1", "a2"), ("a2", "a0"))]
    return build_algebra(q, rels, GF(2), 4)


def main():
    a2 = build_algebra(Quiver(2, [("a", 0, 1)]), [], GF(2), 4)
    nak = nakayama3()

    for name, algebra, m in (
        ("a2 source simple", a2, a2.simple(0)),
        ("a2 projective", a2, a2.projective(0)),
        ("nakayama simple", nak, nak.simple(0)),
    ):
        pd = proj_dim(m, 10)
        verdicts = [ghost_pd_oracle(m, n, 12) for n in range(1, 4)]
        print(f"{name}: pd {pd.describe()}, oracle for n=1..3 -> {verdicts}")

    maps, composite = ghost_maps(a2.simple(0), 2)
    print(f"built {len(maps)} ghost maps; each induces zero on cohomology:",
          all(induced_cohomology_zero(f) for f in maps))


if __name__ == "__main__":
    main()
