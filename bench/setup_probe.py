"""Set-up time of one workload: import circwords, then make one warm call.

Meant to run in a fresh interpreter, from the root of the checkout, so the
import is measured cold.  It prints the seconds taken, then the median
seconds of one unit of the reference loop (reference.py) timed right
after, in the same process.

    python3 bench/setup_probe.py WORKLOAD
"""

import sys
import time


def warm(workload: str) -> None:
    """One small call down the workload's path, so lazy set-up is done."""
    import contextlib
    import io

    from circwords import cli, debruijn, invariants, words

    with contextlib.redirect_stdout(io.StringIO()):
        if workload == "sweep":
            cli.main(["verify", "--max-len", "4"])
        elif workload == "long":
            w = words.parse_circular("0011010", 2)
            invariants.grandsart_report(w)
            debruijn.verify_kirchhoff(w, 3)
        elif workload == "rank":
            cli.main(["rank", "--d", "2", "--l", "2", "--cks", "--spanning-set", "--format", "json"])
        else:
            raise ValueError(f"unknown workload {workload!r}")


#: Units of the reference loop timed after the set-up, in the same process.
REF_UNITS = 5

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    warm(sys.argv[1])
    setup = time.perf_counter() - t0
    from reference import median_unit_seconds

    print(setup, median_unit_seconds(REF_UNITS))
