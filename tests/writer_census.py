"""Census of the CSV writer's continuous cells against ``"%.17g" %``.

``Dataset.to_csv`` formats continuous cells in numpy, block by block
(``estimate._g17_text``).  This census compares that text, cell for cell,
with what Python's ``"%.17g" %`` gives, on

* 10,000,000 seeded random finite bit patterns, every finite double
  alike (about one in twenty lies in the writer's exact range; the rest
  take its per-cell fallback),
* 10,000,000 seeded doubles of random sign and mantissa whose binary
  exponents span the exact range, and
* each power of ten 10**k, k = -324..308, as the nearest double, with the
  four doubles on either side of it.

Run from the repository root::

    PYTHONPATH=src python3 tests/writer_census.py

It prints one row per sample and exits 1 at the first mismatch, printing
that value and both texts.  The file is not a pytest module.
"""

import sys
import time

import numpy as np

from diffgraph.estimate import _WRITE_BLOCK, _g17_text

SEED = 24
CELLS = 10_000_000
COLUMNS = 4
CHUNK = _WRITE_BLOCK * COLUMNS


def doubles(rng, low, high):
    """``CELLS`` doubles of random sign and 52-bit mantissa whose biased
    binary exponent field is drawn from ``low..high - 1``, a chunk at a
    time: every finite bit pattern alike for 0..2046."""
    for start in range(0, CELLS, CHUNK):
        size = min(CHUNK, CELLS - start)
        bits = rng.integers(0, 2 ** 52, size, np.uint64)
        bits |= rng.integers(low, high, size, np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 2, size, np.uint64) << np.uint64(63)
        yield bits.view(float)


def powers_of_ten():
    """10**k, k = -324..308, and the four doubles either side of each."""
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    steps = [powers]
    for toward in (-np.inf, np.inf):
        near = powers
        for _ in range(4):
            near = np.nextafter(near, toward)
            steps.append(near)
    return np.concatenate(steps)


def first_mismatch(values):
    """The first of ``values`` whose text differs from ``"%.17g" %``, with
    both texts, or None.  They are written as to_csv writes them: rows of
    ``COLUMNS`` cells, or one cell when their number does not divide."""
    block = values.reshape(-1, COLUMNS if len(values) % COLUMNS == 0 else 1)
    text = _g17_text(block)
    expected = ["%.17g" % v for v in values.tolist()]
    row = ",".join(["%s"] * block.shape[1]) + "\n"
    if text == (row * len(block)) % tuple(expected):
        return None
    got = text.replace("\n", ",").split(",")
    i = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
    return float(values[i]), got[i], expected[i]


def main():
    rng = np.random.default_rng(SEED)
    print(f"{'sample':24} {'cells':>10} {'exact':>10} {'seconds':>8}")
    # binary exponents -37..56 span the writer's exact range (1e-11, 1e17)
    for name, chunks in (("random bit patterns", doubles(rng, 0, 2047)),
                         ("exact-range exponents",
                          doubles(rng, 1023 - 37, 1023 + 57)),
                         ("powers of ten +-4 ulps", [powers_of_ten()])):
        start, cells, exact = time.perf_counter(), 0, 0
        for values in chunks:
            fault = first_mismatch(values)
            if fault is not None:
                value, got, expected = fault
                print(f"mismatch at {value!r}: writer {got!r}, "
                      f"'%.17g' {expected!r}")
                return 1
            size = np.abs(values)
            cells += len(values)
            exact += np.count_nonzero((size > 1e-11) & (size < 1e17))
        print(f"{name:24} {cells:>10,} {exact:>10,} "
              f"{time.perf_counter() - start:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
