"""Run one benchmark workload from the root of a checkout:

    python3 bench/run.py --workload imp_convnet --seed 0 --seconds 30 --trace 0

BLAS is pinned to one thread before numpy loads: on a 2-core box two
OpenBLAS threads make these small matrices slower, not faster.  The
package is imported from ``src/`` of the same checkout; without it the
run exits with code 2 and prints no result.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    try:
        import ticketlab
    except ImportError as e:
        print(f"bench: cannot import ticketlab from {src}: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(ticketlab.__file__))) != src:
        print(f"bench: ticketlab was imported from {ticketlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness  # imports numpy, so only after the thread pinning
    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
