"""Regenerate perfbench/expected.json from the census in this checkout.

Usage: python3 perfbench/make_expected.py

Runs every workload at its measured and its smoke size once, in this
process, and records the canonical value of every keyed op.  Live
cross-checks must pass, or nothing is written.  Run it only when the
library's outputs are meant to change (ENGINE_VERSION bumps).
"""

import json
import os
import random
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import census  # noqa: E402

import workloads  # noqa: E402


def main():
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    expected = {}
    for name in workloads.NAMES:
        for smoke in (True, False):
            tmpdir = tempfile.mkdtemp(dir=out_dir)
            try:
                setup, ops = workloads.build(name, census, random.Random(0),
                                             smoke, tmpdir)
                for key, thunk in setup + ops:
                    value = thunk()
                    if key is None:
                        if value is not True:
                            sys.exit("live check failed in %s" % name)
                    elif expected.setdefault(key, value) != value:
                        sys.exit("%s is not reproducible" % key)
            finally:
                shutil.rmtree(tmpdir)
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %d expected values" % len(expected))


if __name__ == "__main__":
    main()
