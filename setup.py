"""Build script for the optional compiled reduction kernel.

The extension is compiled from the shipped C source, which Cython generates
from ``_speedups.pyx``.  The package works without it (a pure-Python kernel
is selected at import time), so a failed compile only costs speed.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("kiselman._speedups", ["src/kiselman/_speedups.c"], optional=True)
    ]
)
