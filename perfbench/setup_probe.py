"""Set-up cost of a fresh interpreter: ``import wstargeo`` and build the
workload's block algebras.  Prints the elapsed seconds.

Usage: python3 setup_probe.py SRC_DIR SHAPE [SHAPE ...]   (SHAPE like 2,3)
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wstargeo  # noqa: E402

for shape in sys.argv[2:]:
    algebra = wstargeo.BlockAlgebra(tuple(int(b) for b in shape.split(",")))
    algebra.slices
print(f"{time.perf_counter() - start:.9f}")
