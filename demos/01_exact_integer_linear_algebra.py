"""A tour of the exact integer linear algebra layer.

Everything below happens over Z with arbitrary-precision integers: no
floats, no modular shortcuts.  Run as a script; it prints a narrative.
"""

from chowfiber import (
    IntMatrix,
    cokernel,
    determinantal_divisors,
    integer_kernel,
    invariant_factors_from_divisors,
    snf,
    solve_in_lattice,
)

a = IntMatrix.from_rows([[2, 4], [6, 8]])
print("The running example:")
print(a)

print("\nSmith normal form (s = u @ a @ v, u and v unimodular):")
dec = snf(a)
print(dec.s)
print("nonzero diagonal =", dec.nonzero_diagonal())
print("row transform u =")
print(dec.u)
print("and its inverse, rebuilt from the same log of operations:")
print(dec.u_inv)

print("\nThe independent oracle enumerates minors instead of reducing:")
divisors = determinantal_divisors(a)
print("determinantal divisors:", divisors)
print("invariant factors d_k/d_(k-1):", invariant_factors_from_divisors(divisors))
print("The two routes share no code, so their agreement is evidence, not tautology.")

print("\nCokernels present finitely generated abelian groups:")
for rows in ([[2]], [[2, 4], [6, 8]]):
    m = IntMatrix.from_rows(rows)
    print(f"  Z^{m.row_count} modulo the columns of {rows} =", cokernel(m))

print("\nInteger kernels are saturated (a direct summand of the ambient lattice):")
weights = IntMatrix.from_rows([[2, 2, 1, 1, 2, 2, 4]])
kernel = integer_kernel(weights)
print(f"kernel of the weight row has {kernel.col_count} basis columns;")
print("first column:", kernel.transpose().rows[0])

print("\nsolve_in_lattice answers membership questions exactly, column by column:")
basis = IntMatrix.from_columns([(2, 0), (0, 3)])
coords = solve_in_lattice(basis, IntMatrix.from_columns([(4, -3), (2, 6)]))
print("coordinates of (4, -3) and (2, 6), as columns:")
print(coords)
try:
    solve_in_lattice(basis, IntMatrix.from_columns([(1, 0)]))
except Exception as e:
    print("(1, 0) is rejected:", type(e).__name__)
