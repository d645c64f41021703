"""Tour: standardization and Cartwright-Sturmfels detection.

A non-standard positive grading (variables with composite degree vectors)
is transported to a standard multigraded ring by the substitution
x_i -> y_{i,1} ... y_{i,l_i}.  The substitution preserves codimension,
K-polynomial, multidegree and initial ideals, so questions about the
original ideal can be answered in the standard world.  An ideal is
Cartwright-Sturmfels when its standardization has the Hilbert series of
a radical Borel-fixed ideal J_A, its gin, which is then squarefree;
cs_check reads that off K(S/I) with no change of coordinates.  Such
ideals have radical initial ideals under every term order and a
multiplicity-free multidegree.

Run:  python demos/cs_detection.py
"""

from mdeg import cs_check, exchange_check, multidegree_C, standardize, verify_standardization
from mdeg.determinantal import build_determinantal
from mdeg.fields import GF32003


def main():
    print("== maximal minors of a generic 2 x 3 matrix, fine grading ==")
    ring, I = build_determinantal(2, 3, 2, GF32003)
    print("degrees:", dict(zip(ring.names, ring.degrees)))

    std = standardize(ring)
    print("\nstandardization splits each entry into copies:")
    for i in range(ring.n):
        copies = [std.target.names[j] for j in std.copy_index[i]]
        print(f"  {ring.names[i]} -> {' * '.join(copies)}")

    print("\ninvariant preservation:")
    for clause, value in sorted(verify_standardization(I).items()):
        print(f"  {clause}: {'pass' if value else 'FAIL'}")

    verdict = cs_check(I)
    print(f"\nCartwright-Sturmfels: {verdict.is_cs}  ({verdict.detail})")

    C = multidegree_C(I)
    ok, _ = exchange_check(set(C.terms))
    print(f"multidegree support is a polymatroid base set: {ok}")
    print(f"multiplicity-free: {set(C.terms.values()) == {1}}")

    print("\n== 2-minors of a generic 3 x 3 matrix: the negative case ==")
    _, I2 = build_determinantal(3, 3, 2, GF32003)
    verdict2 = cs_check(I2)
    print(f"Cartwright-Sturmfels: {verdict2.is_cs}  ({verdict2.detail})")


if __name__ == "__main__":
    main()
