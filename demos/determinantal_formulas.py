"""Tour: maximal minors of a generic matrix under the fine grading.

For the ideal of maximal minors of a generic m x n matrix, graded so that
the entry x_{i,j} has degree e_i + f_j in N^(m+n), both the multidegree
polynomial and the K-polynomial have closed combinatorial forms.  This
demo compares them with the Groebner pipeline and shows the diagonal
initial ideal.

Run:  python demos/determinantal_formulas.py
"""

from mdeg import k_polynomial, lex, multidegree_C
from mdeg.determinantal import (
    build_determinantal,
    closed_formulas,
    diagonal_initial,
)


def main():
    for m, n in [(2, 3), (3, 4)]:
        print(f"== generic {m} x {n} matrix, ideal of {m}-minors ==")
        ring, I = build_determinantal(m, n, m)
        order = lex(ring)  # the diagonal order
        names = [f"t{i}" for i in range(1, m + 1)] + [
            f"s{j}" for j in range(1, n + 1)
        ]

        H, K = closed_formulas(m, n)
        print("closed multidegree formula:")
        print("  ", H.__str__(names))
        match_C = multidegree_C(I, order) == H
        match_K = k_polynomial(I, order) == K
        print(f"pipeline agreement: C {match_C}, K {match_K}")

        _, J = diagonal_initial(m, n)
        print("diagonal initial ideal (squarefree main diagonals):")
        print("  ", J)
        print()

    print("== 2-minors of a 3 x 3 matrix (not maximal: coefficients jump) ==")
    ring, I2 = build_determinantal(3, 3, 2)
    C = multidegree_C(I2, lex(ring))
    coeffs = sorted(set(C.terms.values()))
    print(f"multidegree has coefficients {coeffs}: not multiplicity-free")


if __name__ == "__main__":
    main()
