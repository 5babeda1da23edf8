"""Kernel selection: the compiled reduction if it is built, pure Python otherwise."""

try:
    from kiselman._speedups import reduce_word

    KERNEL_BACKEND = "c"
except ImportError:
    from kiselman._reduce_py import reduce_word

    KERNEL_BACKEND = "python"

__all__ = ["reduce_word", "KERNEL_BACKEND"]
