"""Print the numeric environment the test tolerances rest on: the numpy and
scipy versions (scipy is the tests' oracle), numpy's BLAS/LAPACK runtime, and
numpy's OpenBLAS thread count as the simulator reads it.

Run from any directory: ``python .github/numeric_environment.py``.
"""
import os, sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, 'src'))
import numpy, scipy
from tosda import simulator
print('numpy', numpy.__version__, 'scipy', scipy.__version__)
numpy.show_runtime()
# the count monte_carlo pins to one while a worker pool runs
controls = simulator._openblas_thread_controls()
print('numpy._core._multiarray_umath', simulator._OPENBLAS_SYMBOL.format('get'),
      controls[0]() if controls else 'missing')
