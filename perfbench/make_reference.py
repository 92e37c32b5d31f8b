"""Write reference/verify-all.json from a manifest of
``negacyclic verify --scope all --threads 1``:

    PYTHONPATH=src python3 -m negacyclic.cli verify --scope all --threads 1 \
        --no-cache --out /tmp/manifest.json
    python3 perfbench/make_reference.py /tmp/manifest.json

The reference is the manifest with each record's timestamp and elapsed_s
removed; run.py compares every benchmark manifest against it.
"""

import json
import os
import sys

from run import REFERENCE, strip_volatile

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        manifest = json.load(fh)
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump(strip_volatile(manifest), fh, indent=1, sort_keys=True)
        fh.write("\n")
