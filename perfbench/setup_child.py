"""Time a cold set-up in a fresh process.

Usage: python3 perfbench/setup_child.py '<json list of [kind, n]>'

kind is "tower" (tower_field(n) plus its unity circle) or "make"
(make_field(n)).  The clock starts before niho_perm is imported.  Prints one
JSON object: the total seconds and the milliseconds of each build.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from niho_perm import make_field, tower_field, unity_group  # noqa: E402


def build(kind: str, n: int) -> None:
    """One set-up step: "tower" builds tower_field(n) and its unity circle,
    "make" builds make_field(n)."""
    if kind == "tower":
        unity_group(tower_field(n))
    elif kind == "make":
        make_field(n)
    else:
        raise ValueError(f"unknown build kind {kind!r}")


def main() -> None:
    builds = {}
    for kind, n in json.loads(sys.argv[1]):
        t = time.perf_counter()
        build(kind, n)
        builds[f"{kind}{n}"] = (time.perf_counter() - t) * 1e3
    print(json.dumps({"total_s": time.perf_counter() - T0,
                      "builds_ms": builds}))


if __name__ == "__main__":
    main()
