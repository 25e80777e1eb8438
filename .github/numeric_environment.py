"""Print the numeric environment the test tolerances rest on: the numpy and
scipy versions, numpy's BLAS/LAPACK runtime, and the OpenBLAS thread counts.

Run from any directory: ``python .github/numeric_environment.py``.
"""
import ctypes, importlib, numpy, scipy
print('numpy', numpy.__version__, 'scipy', scipy.__version__)
numpy.show_runtime()
# the OpenBLAS thread counts monte_carlo pins to one for the whole call
for module, symbol in (('numpy._core._multiarray_umath', 'scipy_openblas_get_num_threads64_'),
                       ('scipy.linalg._fblas', 'scipy_openblas_get_num_threads')):
    try:
        get = getattr(ctypes.CDLL(importlib.import_module(module).__file__), symbol)
        get.restype = ctypes.c_int
        print(module, symbol, get())
    except (ImportError, OSError, AttributeError) as exc:
        print(module, symbol, 'missing:', exc)
