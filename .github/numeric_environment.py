"""Print the numeric environment the test tolerances rest on: the numpy and
scipy versions (scipy is the tests' oracle), numpy's BLAS/LAPACK runtime, and
numpy's OpenBLAS thread count.

Run from any directory: ``python .github/numeric_environment.py``.
"""
import ctypes, numpy, scipy
print('numpy', numpy.__version__, 'scipy', scipy.__version__)
numpy.show_runtime()
# the count monte_carlo pins to one while a worker pool runs
symbol = 'scipy_openblas_get_num_threads64_'
try:
    get = getattr(ctypes.CDLL(numpy._core._multiarray_umath.__file__), symbol)
    get.restype = ctypes.c_int
    print('numpy._core._multiarray_umath', symbol, get())
except (OSError, AttributeError) as exc:
    print('numpy._core._multiarray_umath', symbol, 'missing:', exc)
