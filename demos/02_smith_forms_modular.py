#!/usr/bin/env python3
"""Smith normal forms over Z and over the local rings Z/p^kZ.

Walks through the diagonal projection example, then the module-theoretic
toolkit built on top of the forms: solvability of linear systems, kernel
structure, the unit-kernel test, and basis extension.

Run:  python demos/02_smith_forms_modular.py
"""

from walklevel import (
    IntMatrix,
    dn_test,
    extend_basis,
    kernel_shape,
    snf_int,
    snf_mod_pk,
    solvable_mod_pk,
)

BANNER = "=" * 64


def main():
    print(BANNER)
    print("Smith normal forms and Z/p^kZ linear algebra")
    print(BANNER)

    m = IntMatrix.diag([2, 10, 30, 270])
    print("\nM = diag(2, 10, 30, 270); its integer Smith form keeps those")
    print("factors, but the projections depend on how much 3-power survives:")
    print(f"  over Z:        {snf_int(m).invariant_factors}")
    for k in (1, 2):
        res = snf_mod_pk(m, 3, k)
        diag = [res.S[i, i] for i in range(4)]
        print(f"  over Z/3^{k}Z:   diagonal {diag}")

    print(f"\n{BANNER}")
    print("Solvability of M x = b over Z/9Z, read through U M V = S: (U b)_i must")
    print("be a multiple of d_i within the rank and 0 beyond it; then x = V S^+ U b")
    m = IntMatrix.diag([3, 1])
    for b in ((1, 0), (3, 5)):
        ok, x = solvable_mod_pk(m, b, 3, 2)
        print(f"  diag(3,1) x = {b} (mod 9): {'solvable, x = ' + str(x) if ok else 'no solution'}")

    print(f"\n{BANNER}")
    print("Kernel structure from the invariant factors (no enumeration):")
    examples = [
        (IntMatrix([[3]]), "the 1x1 matrix (3)"),
        (IntMatrix.diag([1, 1, 9]), "diag(1, 1, 9)"),
        (IntMatrix([[1, 2, 0], [0, 3, 0]]), "a 2x3 matrix"),
    ]
    for mat, label in examples:
        ks = kernel_shape(mat, 3, 2)
        # |ker| = 9^(free rank) * 3^(sum of the torsion exponents)
        size = ks.modulus ** ks.free_rank * 3 ** sum(ks.torsion_exponents)
        print(f"  {label}: torsion exponents {ks.torsion_exponents}, "
              f"free rank {ks.free_rank}, kernel size {size}")
        if ks.free_basis:
            print(f"    free basis: {list(ks.free_basis)}")

    print(f"\n{BANNER}")
    print("Unit-kernel test: does M z = 0 (mod p^k) admit z with a unit entry?")
    m = IntMatrix.diag([1, 3])
    for k in (1, 2):
        ok, z = dn_test(m, 3, k)
        print(f"  diag(1,3) mod 3^{k}: {'yes, z = ' + str(z) if ok else 'no'}"
              f"  (equivalent to 3^{k} | d_2 = 3)")

    print(f"\n{BANNER}")
    print("Basis extension inside (Z/9Z)^3: complete {(1, 4, 7)} to a basis")
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    completed = extend_basis([(1, 4, 7)], basis, 3, 2)
    for v in completed:
        print(f"  {v}")


if __name__ == "__main__":
    main()
