"""Kernel selection: the compiled reduction if it is built, pure Python otherwise."""

try:
    from kiselman._speedups import reduce_word

    def extend(canonical, letters):
        return reduce_word(canonical + tuple(letters))

    KERNEL_BACKEND = "c"
except ImportError:
    from kiselman._reduce_py import extend, reduce_word

    KERNEL_BACKEND = "python"

__all__ = ["extend", "reduce_word", "KERNEL_BACKEND"]
