"""The set-up that `setup_s` times, run in a fresh interpreter.

Imports `proxipair` and `proxipair.cli`, writes the workload's instance
files, and projects one point onto each body of the first written instance,
so that imports the program defers to first use (such as the 2-D hull code)
are paid here as a CLI user pays them.

    python3 perfbench/prepare.py --workload NAME --seed N --dir DIR
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import proxipair  # noqa: E402
import proxipair.cli  # noqa: E402,F401
from inputs import WORKLOADS, make_documents, write_documents  # noqa: E402
from proxipair.instances import _build_body  # noqa: E402


def touch_first_use(docs: list) -> None:
    """Project one point onto each body of the first instance document, so
    that what the program imports or builds on first use is paid now."""
    first = next(d for d in docs if isinstance(d, dict))
    space = proxipair.LpSpace(first["space"]["dim"], first["space"]["p"])
    for key, spec in first["bodies"].items():
        body = _build_body(spec, space, f"bodies.{key}")
        body.project_many(np.asarray(body.anchor())[None, :] + 1.0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    docs = make_documents(args.workload, args.seed)
    write_documents(docs, args.dir)
    touch_first_use(docs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
