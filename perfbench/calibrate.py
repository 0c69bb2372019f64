"""Machine-speed probe for run.py, run by it as a child process.

    python3 perfbench/calibrate.py

For each line read from standard input it does one fixed piece of
pure-Python work shaped like the package's and writes the seconds it took
as one line on standard output; it ends when its input closes.  The work
is a sparse polynomial product with Fraction coefficients and tuple
exponents, then scattered lookups in a dict of several MB: its speed
follows the package's when the machine speeds up or slows down more
closely than a tight arithmetic loop's does.  It runs in its own process,
on its own heap and inputs, so what the package allocates in the
benchmark process does not change its times, and it imports no package
code.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from time import perf_counter


def inputs():
    """Two 40-term sparse polynomials over Q in 5 variables, and a
    30,000-entry dict with tuple keys with 3,000 of its keys shuffled."""
    rng = random.Random("calibration")

    def poly():
        return {tuple(rng.randint(-4, 4) for _ in range(5)):
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(40)}

    table = {(i, i * 7 % 13, i % 5): Fraction(i, 7) for i in range(30_000)}
    keys = list(table)
    rng.shuffle(keys)
    return poly(), poly(), table, keys[:3_000]


def sample(left, right, table, keys) -> float:
    t0 = perf_counter()
    product = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            current = product.get(key)
            term = c1 * c2
            product[key] = term if current is None else current + term
    total = Fraction(0)
    for key in keys:
        total += table[key]
    return perf_counter() - t0


def main() -> None:
    data = inputs()
    for _ in sys.stdin:
        print(sample(*data), flush=True)


if __name__ == "__main__":
    main()
