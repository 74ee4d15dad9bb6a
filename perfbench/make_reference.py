"""Record each op's reference result at the default seed into reference.json.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter seeded library outputs; the
benchmark fails every op whose result differs from this file.
"""
import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    run.import_library()
    import workloads
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(workloads.DEFAULT_SEED, reference={})
        w.setup()
        try:
            reference[name] = {w.key(j): w.reference_value(j, w.op(j))
                               for j in range(len(w))}
        finally:
            w.teardown()
        print(f"{name}: {len(reference[name])} ops recorded")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
