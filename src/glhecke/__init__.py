"""Exact affine Hecke algebra computations for GL(m).

The package implements, with integer-exact arithmetic throughout:

* ``laurent``  - sparse Laurent polynomials over Z and the telescoping
  Demazure quotient;
* ``weyl``     - the extended affine Weyl group Z^m x| S_m, its length
  function, reduced words, and the length-zero subgroup;
* ``hecke``    - the affine Hecke algebra in the Bernstein basis with a
  normal-ordering product;
* ``polyrep``  - the polynomial representation on R(T)[s, s^-1];
* ``springer`` - the equivariant K-module of the subregular Springer fiber
  (fixed-point tuples, declared bases, the Hecke action);
* ``theta``    - the rank-m IC module obtained by transport, the two-headed
  sheaf-function dictionary, and orbit-label combinatorics;
* ``verify``   - batch identity verification with byte-stable reports;
* ``cli``      - the ``glhecke`` command.
"""

from . import hecke, laurent, polyrep, springer, theta, verify, weyl

__all__ = ["hecke", "laurent", "polyrep", "springer", "theta", "verify", "weyl"]
__version__ = "0.1.0"
