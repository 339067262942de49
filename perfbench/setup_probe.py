"""Set-up time of one workload in a fresh interpreter.

Prints the seconds taken to import hyperconnect (which loads catalog.json)
and to generate the workload's case list.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import hyperconnect  # noqa: F401
    import cases

    cases.workload_cases(name, seed)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
