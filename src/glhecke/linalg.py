"""Empty: no program path computes a determinant.

The Bareiss determinant and its permutation-expansion oracle are test
oracles now (``tests/det_oracle.py``).  This module stays only because the
per-layer tracer of the benchmark (``perfbench/tracer.py``) imports every
layer it lists, ``linalg`` included; drop it from that list, then delete
this file.
"""
