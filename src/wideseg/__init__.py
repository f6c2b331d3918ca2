"""Weighted space-time minimization and verification for strongly
competing species systems.

Importing the package sets, once per process, how glibc's allocator treats
freed memory.  Nearly all of wideseg's run time is the descent loop calling
the functional's value and gradient thousands of times, and each call
allocates and frees temporaries of field size (0.2-0.7 MB on the desk
meshes).  Under glibc's default dynamic thresholds much of that memory is
handed back to the kernel when it is freed and faulted in again, page by
page, on the next call: over a million minor faults and seconds of system
time per ladder.  ``_keep_freed_memory`` raises the mmap threshold to
32 MiB (the ceiling glibc's own dynamic threshold can reach) and the trim
threshold to twice that (the ratio glibc's dynamic rule keeps), so freed
temporaries stay in the heap and are reused.  Peak RSS does not change,
and no array operation changes, so every result is bit-identical.

Elsewhere (musl, macOS, Windows) there is no ``mallopt`` and nothing is
set.  ``MALLOC_POLICY`` names what was applied, or is None; ``wideseg
run`` records it in the ``meta`` block of ``summary.json``.
"""

__version__ = "0.1.0"

#: glibc's ``mallopt`` parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _keep_freed_memory() -> str | None:
    """Set glibc's mmap and trim thresholds; return a description of the
    policy applied, or None where it could not be set.  Never raises."""
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        if (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1):
            return (f"glibc mmap {_MMAP_THRESHOLD >> 20} MiB / "
                    f"trim {_TRIM_THRESHOLD >> 20} MiB")
    except Exception:
        # the policy is an optimization: no failure of it may stop the
        # import, and MALLOC_POLICY = None records that it was not applied
        pass
    return None


MALLOC_POLICY = _keep_freed_memory()
