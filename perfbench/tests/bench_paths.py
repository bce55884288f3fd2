"""Put the benchmark modules and the checkout's src/ on sys.path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
for path in (os.path.join(os.path.dirname(BENCH), "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

TINY = {
    "train": {"entities": 16, "docs": 40, "doc_len": 12, "vocab": 60,
              "topics": 4, "zipf": None},
    "retrieve": {"entities": 30, "docs": 60, "doc_len": 10, "vocab": 80,
                 "topics": 6, "zipf": 1.0},
    "tune": {"entities": 24, "docs": 48, "doc_len": 10, "vocab": 70,
             "topics": 10, "zipf": 1.0},
}
