"""Host reference for run.py: times one fixed task per request.

    python3 perfbench/hostref.py BLOCKS

For each line read on standard input it generates one flat design of BLOCKS
blocks with gen.py three times and writes the median time, in seconds, as
one line; the median drops the first run's wake-up from idle.
It runs in a process of its own, so the time depends on how fast the host
runs Python at that moment and not on the memory state that cdckit leaves
in the benchmark process.
"""

import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

blocks = int(sys.argv[1])
for _ in sys.stdin:
    times = []
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        gen.build("ref", 0, blocks, shape="flat")
        times.append(time.perf_counter() - t0)
    print(sorted(times)[1], flush=True)
