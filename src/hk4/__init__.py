"""Exact-arithmetic certification suite for hyper-Kahler fourfold arithmetic.

Submodules: rationals (exact scalars and polynomials), lattices (quadratic
lattices, cones, reflections), fujiki (degree integrals and the Riemann-Roch
polynomial), classifier (the bounded Diophantine case analysis), h4 (degree-4
Hodge classes and the UNSAT certificates), ledger (Euler-characteristic and
section-count bookkeeping), report (canonical JSON serialization), cli (the
hk4 command).
"""
